// Command hssim runs a peripheral as a standalone simulator process
// behind the HardSnap remote protocol — the paper's "self-contained
// simulator with a remote interface" (Fig. 3, A.2). A virtual machine
// (remote.Connect) attaches over TCP and gets the full target surface
// through the one wire protocol: batched register reads/writes, IRQ
// sampling and clock advancement, pipelining, wire snapshots with
// digest negotiation and worker spawning.
//
// Usage:
//
//	hssim -periph uart -listen 127.0.0.1:7700
//	hssim -source design.v -top mydev -listen 127.0.0.1:7700
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"

	"hardsnap/internal/buildinfo"
	"hardsnap/internal/remote"
	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

func main() {
	periphName := flag.String("periph", "", "corpus peripheral to host (gpio timer uart spi crc32 aes128 regfile)")
	source := flag.String("source", "", "custom Verilog file to host instead of -periph")
	top := flag.String("top", "", "top module of -source")
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address")
	fpga := flag.Bool("fpga", false, "model the FPGA target instead of the simulator")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	faultRate := flag.Float64("fault-rate", 0, "probability of dropping a protocol frame (half of it is also applied as bit corruption)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the deterministic fault schedule")
	latencyJitter := flag.Duration("latency-jitter", 0, "uniform extra per-frame latency in [0, jitter)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("hssim"))
		return
	}
	// The server runs until killed, so profiles flush from a signal
	// handler (SIGINT/SIGTERM) rather than a defer that would never
	// run.
	flush := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hssim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hssim:", err)
			os.Exit(1)
		}
		flush = pprof.StopCPUProfile
	}
	if *memprofile != "" {
		memPath, cpuFlush := *memprofile, flush
		flush = func() {
			cpuFlush()
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hssim:", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hssim:", err)
			}
		}
	}
	if *cpuprofile != "" || *memprofile != "" {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			flush()
			os.Exit(0)
		}()
	}
	sched := target.FaultSchedule{
		Seed:          *faultSeed,
		DropRate:      *faultRate,
		CorruptRate:   *faultRate / 2,
		LatencyJitter: *latencyJitter,
	}
	if *faultRate == 0 && *latencyJitter == 0 {
		sched = target.FaultSchedule{}
	}
	err := run(*periphName, *source, *top, *listen, *fpga, sched)
	flush()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hssim:", err)
		os.Exit(1)
	}
}

func run(periphName, source, top, listen string, fpga bool, sched target.FaultSchedule) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	return serveOn(ln, periphName, source, top, fpga, sched)
}

// serveOn hosts the peripheral behind the protocol on an existing
// listener (separated from run for testability). A non-zero fault
// schedule wraps every accepted connection in a deterministic fault
// injector, making the TCP link behave like the paper's flaky
// debugger transport.
func serveOn(ln net.Listener, periphName, source, top string, fpga bool, sched target.FaultSchedule) error {
	cfg := target.PeriphConfig{Name: "dev0", Periph: periphName}
	switch {
	case source != "":
		data, err := os.ReadFile(source)
		if err != nil {
			return err
		}
		cfg.Source = string(data)
		cfg.Top = top
		cfg.Periph = ""
	case periphName == "":
		return fmt.Errorf("one of -periph or -source is required")
	}

	clock := &vtime.Clock{}
	var tgt *target.Target
	var err error
	if fpga {
		tgt, err = target.NewFPGA("hssim", clock, []target.PeriphConfig{cfg}, false)
	} else {
		tgt, err = target.NewSimulator("hssim", clock, []target.PeriphConfig{cfg})
	}
	if err != nil {
		return err
	}
	fmt.Printf("hssim: hosting %s on %s (%s target, %d state bits)\n",
		describe(cfg), ln.Addr(), tgt.Kind(), tgt.StateBits())
	srv := remote.NewServer(tgt)
	var wrap func(net.Conn) net.Conn
	if sched != (target.FaultSchedule{}) {
		fmt.Printf("hssim: fault injection armed (seed %d, drop %.2f, corrupt %.2f, jitter %v)\n",
			sched.Seed, sched.DropRate, sched.CorruptRate, sched.LatencyJitter)
		// Each accepted connection draws from its own seed: a client
		// recovers from a desynchronized stream by redialing, and would
		// otherwise meet the same fault at the same frame forever. The
		// accept loop calls wrap from one goroutine.
		next := sched
		wrap = func(conn net.Conn) net.Conn {
			fc := target.NewFaultConn(conn, next)
			next.Seed++
			return fc
		}
	}
	return srv.ListenAndServeWith(ln, wrap)
}

func describe(cfg target.PeriphConfig) string {
	if cfg.Source != "" {
		return "module " + cfg.Top
	}
	return cfg.Periph
}
