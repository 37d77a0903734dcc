package main

import (
	"context"
	"os"
	"path/filepath"
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

// baseOpts is a valid single-worker software-only invocation; tests
// override fields per case.
func baseOpts(src string) runOpts {
	return runOpts{
		Mode:     "hardsnap",
		Searcher: "dfs",
		Policy:   "one",
		MaxInstr: 100000,
		Workers:  1,
		Args:     []string{src},
	}
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
