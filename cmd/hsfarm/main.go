// Command hsfarm serves exploration campaigns to multiple tenants: a
// TCP server around internal/farm that schedules submitted jobs
// fairly across tenants, enforces per-tenant virtual-time and
// solver-query budgets, builds each job its own rig exactly as a
// standalone run does, and journals parallel campaigns so a killed
// server resumes them on restart.
//
// Usage:
//
//	hsfarm -listen :7333 -state /var/lib/hsfarm \
//	       -tenant acme:10s:100000 -tenant widgets
//
// Each -tenant is NAME[:VIRTUAL-TIME[:SOLVER-QUERIES]]; omitted
// budget fields are unlimited. With no -tenant flags a single
// unlimited tenant named "default" is declared — what the hardsnap
// CLI's -farm mode submits as out of the box. SIGINT/SIGTERM shut the
// server down gracefully: running jobs flush their journals and are
// resumed by the next hsfarm on the same -state directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hardsnap/internal/buildinfo"
	"hardsnap/internal/dist"
	"hardsnap/internal/farm"
)

type tenantFlag map[string]farm.Budget

func (t tenantFlag) String() string { return fmt.Sprintf("%v", map[string]farm.Budget(t)) }

func (t tenantFlag) Set(s string) error {
	parts := strings.SplitN(s, ":", 3)
	name := parts[0]
	if name == "" {
		return fmt.Errorf("empty tenant name in %q", s)
	}
	var b farm.Budget
	if len(parts) > 1 && parts[1] != "" {
		vt, err := time.ParseDuration(parts[1])
		if err != nil {
			return fmt.Errorf("tenant %s: bad virtual-time budget %q: %v", name, parts[1], err)
		}
		b.VirtualTime = vt
	}
	if len(parts) > 2 && parts[2] != "" {
		q, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return fmt.Errorf("tenant %s: bad solver-query budget %q: %v", name, parts[2], err)
		}
		b.SolverQueries = q
	}
	t[name] = b
	return nil
}

func main() {
	listen := flag.String("listen", "127.0.0.1:7333", "TCP address to serve the farm protocol on")
	state := flag.String("state", "", "directory for job state and campaign journals (empty = no restart recovery)")
	slots := flag.Int("jobs", 2, "concurrently running jobs")
	distMode := flag.Bool("dist", false, "serve the distributed-exploration worker protocol instead of the farm scheduler (pair with hardsnap -nodes)")
	tenants := tenantFlag{}
	flag.Var(tenants, "tenant", "declare a tenant NAME[:VIRTUAL-TIME[:SOLVER-QUERIES]] (repeatable; omitted budgets are unlimited)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("hsfarm"))
		return
	}
	if len(tenants) == 0 {
		tenants["default"] = farm.Budget{}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *distMode {
		if err := runDist(ctx, *listen); err != nil {
			fmt.Fprintln(os.Stderr, "hsfarm:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(ctx, farm.Config{
		StateDir: *state,
		Slots:    *slots,
		Tenants:  tenants,
	}, *listen); err != nil {
		fmt.Fprintln(os.Stderr, "hsfarm:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg farm.Config, listen string) error {
	f, err := farm.New(cfg)
	if err != nil {
		return err
	}
	srv := farm.NewServer(f)
	addr, err := srv.ListenAndServe(listen)
	if err != nil {
		f.Close()
		return err
	}
	names := make([]string, 0, len(cfg.Tenants))
	for name := range cfg.Tenants {
		names = append(names, name)
	}
	fmt.Printf("hsfarm: serving %d tenant(s) %v on %s (state %q, %d slots)\n",
		len(names), names, addr, cfg.StateDir, cfg.Slots)

	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "hsfarm: shutting down; journaled jobs resume on restart")
	srv.Close()
	f.Close()
	return nil
}

// runDist serves the distributed-exploration worker protocol: the
// node re-runs each campaign's deterministic seed phase and executes
// subtrees by index for a hardsnap -nodes driver.
func runDist(ctx context.Context, listen string) error {
	srv := dist.NewServer()
	addr, err := srv.ListenAndServe(listen)
	if err != nil {
		return err
	}
	fmt.Printf("hsfarm: serving dist worker protocol on %s\n", addr)
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "hsfarm: dist worker shutting down; in-flight subtrees are requeued by their drivers")
	srv.Close()
	return nil
}
