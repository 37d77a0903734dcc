package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hardsnap/internal/campaign"
	"hardsnap/internal/core"
	"hardsnap/internal/farm"
	"hardsnap/internal/target"
)

const buggyFirmware = `
_start:
	li r1, 0x100
	addi r2, r0, 1
	addi r3, r0, 1
	ecall 1
	lbu r4, 0(r1)
	addi r5, r0, 7
	bne r4, r5, ok
	abort
ok:
	halt
`

func writeFirmware(t *testing.T, fw string) string {
	t.Helper()
	src := filepath.Join(t.TempDir(), "fw.s")
	if err := os.WriteFile(src, []byte(fw), 0o644); err != nil {
		t.Fatal(err)
	}
	return src
}

// baseOpts is a valid single-worker software-only exploration: the
// flag defaults with a smaller instruction budget. Tests override
// fields per case.
func baseOpts(src string) runOpts {
	o := defaultOpts()
	o.MaxInstr = 100000
	o.Args = []string{src}
	return o
}

func TestRunFindsBug(t *testing.T) {
	src := writeFirmware(t, buggyFirmware)
	opts := baseOpts(src)
	opts.Verbose = true
	opts.ReportDir = t.TempDir()
	code, err := run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (bug found)", code)
	}
	// With hardware attached and every mode.
	for _, mode := range []string{"hardsnap", "naive-reboot", "naive-shared", "record-replay"} {
		opts := baseOpts(src)
		opts.Periphs = []target.PeriphConfig{{Name: "g", Periph: "gpio"}}
		opts.Mode = mode
		opts.Searcher = "bfs"
		opts.FPGA = true
		opts.Policy = "all"
		opts.Workers = 4
		code, err := run(context.Background(), opts)
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if code != 2 {
			t.Fatalf("mode %s: exit %d", mode, code)
		}
	}
}

// TestRunJournalAndResume drives the crash-safety surface end to end:
// a journaled parallel run completes and records a complete campaign;
// resuming the complete campaign is refused.
func TestRunJournalAndResume(t *testing.T) {
	src := writeFirmware(t, buggyFirmware)
	jpath := filepath.Join(t.TempDir(), "campaign.hsj")
	opts := baseOpts(src)
	opts.Workers = 4
	opts.Journal = jpath
	code, err := run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("journaled run: exit %d, want 2", code)
	}
	cam, err := core.LoadCampaign(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !cam.Complete {
		t.Fatal("journaled campaign not marked complete")
	}

	res := baseOpts(src)
	res.Workers = 0 // resume infers the worker count from the journal
	res.Resume = jpath
	if _, err := run(context.Background(), res); err == nil {
		t.Fatal("resume of a complete campaign must be refused")
	}
}

// TestRunInterrupted: a cancelled context stops a journaled campaign
// with exit status 3 and a resumable journal.
func TestRunInterrupted(t *testing.T) {
	src := writeFirmware(t, buggyFirmware)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run stops at its first check
	opts := baseOpts(src)
	opts.Workers = 4
	opts.Journal = filepath.Join(t.TempDir(), "campaign.hsj")
	code, err := run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if code != 3 {
		t.Fatalf("interrupted run: exit %d, want 3", code)
	}
}

func TestRunValidation(t *testing.T) {
	bad := func(mutate func(*runOpts)) error {
		src := writeFirmware(t, "_start:\n\thalt\n")
		opts := baseOpts(src)
		mutate(&opts)
		_, err := run(context.Background(), opts)
		return err
	}
	if err := bad(func(o *runOpts) { o.Args = nil }); err == nil {
		t.Fatal("missing firmware must fail")
	}
	if err := bad(func(o *runOpts) { o.Mode = "bogus" }); err == nil {
		t.Fatal("bad mode must fail")
	}
	if err := bad(func(o *runOpts) { o.Searcher = "bogus" }); err == nil {
		t.Fatal("bad searcher must fail")
	}
	if err := bad(func(o *runOpts) { o.Policy = "bogus" }); err == nil {
		t.Fatal("bad policy must fail")
	}
	if err := bad(func(o *runOpts) { o.Journal = "j.hsj" }); err == nil {
		t.Fatal("-journal with one worker must fail")
	}
	if err := bad(func(o *runOpts) { o.Journal = "j.hsj"; o.Resume = "r.hsj"; o.Workers = 4 }); err == nil {
		t.Fatal("-journal with -resume must fail")
	}
	if err := bad(func(o *runOpts) { o.Resume = "does-not-exist.hsj" }); err == nil {
		t.Fatal("resume of a missing journal must fail")
	}
	// A flag of one mode set in the other is refused, not ignored.
	if err := bad(func(o *runOpts) { o.JSON = true }); err == nil || !strings.Contains(err.Error(), "-json") {
		t.Fatalf("-json without -fuzz: err = %v, want a refusal naming -json", err)
	}
	if err := bad(func(o *runOpts) { o.Tenant = "acme" }); err == nil || !strings.Contains(err.Error(), "-tenant") {
		t.Fatalf("-tenant without -farm: err = %v, want a refusal naming -tenant", err)
	}
	src := writeFirmware(t, buggyFirmware)
	fuzzOpts := defaultOpts()
	fuzzOpts.Fuzz = true
	fuzzOpts.Args = []string{src}
	withReadback := fuzzOpts
	withReadback.FPGA, withReadback.Readback = true, true
	if _, err := run(context.Background(), withReadback); err == nil || !strings.Contains(err.Error(), "-readback") {
		t.Fatalf("-fuzz -readback: err = %v, want a refusal naming -readback", err)
	}
	withTenant := fuzzOpts
	withTenant.Tenant = "acme"
	if _, err := run(context.Background(), withTenant); err == nil || !strings.Contains(err.Error(), "-tenant") {
		t.Fatalf("-fuzz -tenant: err = %v, want a refusal naming -tenant", err)
	}
	// -workers sets the fuzz worker count.
	fuzzOpts.Workers = 2
	fuzzOpts.JSON = true
	var code int
	var err error
	out := captureStdout(t, func() { code, err = run(context.Background(), fuzzOpts) })
	if err != nil {
		t.Fatal(err)
	}
	var res struct{ Workers, Execs int }
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("-fuzz -json output: %v\n%s", err, out)
	}
	if res.Workers != 2 || res.Execs != fuzzOpts.FuzzExecs {
		t.Fatalf("-fuzz -workers 2 ran %d workers and %d execs (exit %d), want 2 and %d", res.Workers, res.Execs, code, fuzzOpts.FuzzExecs)
	}
}

// captureStdout returns what f writes to os.Stdout. f must return
// normally (no t.Fatal), so that stdout is always put back.
func captureStdout(t *testing.T, f func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	f()
	os.Stdout = saved
	w.Close()
	return <-out
}

func TestPeriphFlag(t *testing.T) {
	var p periphFlag
	if err := p.Set("u0=uart"); err != nil {
		t.Fatal(err)
	}
	if len(p) != 1 || p[0].Name != "u0" || p[0].Periph != "uart" {
		t.Fatalf("%+v", p)
	}
	if err := p.Set("nope"); err == nil {
		t.Fatal("bad format must fail")
	}
}

// TestRunFarmMode drives the CLI's -farm client mode against an
// in-process farm server: the submitted job must find the bug (exit
// 2) exactly like a local run.
func TestRunFarmMode(t *testing.T) {
	f, err := farm.New(farm.Config{
		StateDir: t.TempDir(),
		Tenants:  map[string]farm.Budget{"default": {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	srv := farm.NewServer(f)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	src := writeFirmware(t, buggyFirmware)
	opts := baseOpts(src)
	opts.Periphs = []target.PeriphConfig{{Name: "g", Periph: "gpio"}}
	opts.Workers = 4
	opts.Farm = addr.String()
	opts.Tenant = "default"
	code, err := run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("farm run: exit %d, want 2 (bug found)", code)
	}

	// Local-run flags make no sense with -farm.
	opts.Journal = "j.hsj"
	if _, err := run(context.Background(), opts); err == nil {
		t.Fatal("-farm with -journal must fail")
	}
	// An undeclared tenant is rejected by the server.
	opts.Journal = ""
	opts.Tenant = "ghost"
	if _, err := run(context.Background(), opts); err == nil {
		t.Fatal("unknown tenant must fail")
	}
}

// TestRunFarmModeResultlessReply: a server that reports a job done
// but sends no result makes -farm mode fail with an error instead of
// dereferencing the missing result.
func TestRunFarmModeResultlessReply(t *testing.T) {
	srv := campaign.NewConnServer(func(c *campaign.Conn) {
		var req farm.Request
		for c.Receive(&req) == nil {
			resp := farm.Response{OK: true}
			switch req.Op {
			case "submit":
				resp.ID = "0123abcd"
			case "stream":
				resp.Done = true
			case "results":
				resp.Job = &farm.JobInfo{ID: req.ID, Tenant: "default", Status: farm.StatusDone}
			}
			if c.Send(resp) != nil {
				return
			}
		}
	})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	opts := baseOpts(writeFirmware(t, buggyFirmware))
	opts.Farm = addr.String()
	opts.Tenant = "default"
	if code, err := run(context.Background(), opts); err == nil {
		t.Fatalf("done reply without a result accepted (exit %d)", code)
	}
}
