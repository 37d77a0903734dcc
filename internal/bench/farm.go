package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"hardsnap/internal/campaign"
	"hardsnap/internal/farm"
	"hardsnap/internal/target"
)

// E15 regenerates the exploration-as-a-service study: a job submitted
// to an hsfarm server over its wire protocol must produce the exact
// fingerprint of a standalone CLI run, and admission from the
// pre-warmed target pool must be at least 5x faster than a cold rig
// build. Both properties are gates — a divergence or a slow pool
// fails the experiment rather than producing a row.
func E15() (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "exploration as a service: farm identity and warm-pool admission",
		Columns: []string{"leg", "paths", "virtual time", "identity", "admission"},
		Notes: []string{
			"identity = result fingerprint equals the standalone runner's (same Job, no farm)",
			"admission is host wall time from job acquire to a ready target: cold = elaborate the rig, warm = pop a recycled pooled target",
			"the farm journals parallel jobs and recycles targets to their power-on state between tenants; recycled rigs are digest-verified against the pristine boot image",
		},
	}
	dir, err := os.MkdirTemp("", "hsbench-e15-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	job := campaign.Job{
		Firmware:        scalingWorkload(6, 40),
		Peripherals:     []target.PeriphConfig{{Name: "g", Periph: "gpio"}},
		FPGA:            true,
		Searcher:        "random",
		Workers:         4,
		MaxInstructions: 5_000_000,
	}

	standalone, err := campaign.Runner{}.Run(context.Background(), job, campaign.RunOptions{})
	if err != nil {
		return nil, fmt.Errorf("E15 standalone: %w", err)
	}
	t.AddRow("standalone runner", fmt.Sprint(standalone.Paths),
		fmt.Sprint(standalone.VirtualTime), "baseline", "-")

	f, err := farm.New(farm.Config{
		StateDir: dir,
		PoolSize: 1,
		Tenants:  map[string]farm.Budget{"bench": {}},
	})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	srv := farm.NewServer(f)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	c, err := farm.Dial(addr.String())
	if err != nil {
		return nil, err
	}
	defer c.Close()

	// Jobs run back to back on one rig key: the first admission builds
	// the rig cold, every later one reuses the recycled pooled target.
	const warmJobs = 3
	for i := 0; i < 1+warmJobs; i++ {
		id, err := c.Submit("bench", job)
		if err != nil {
			return nil, fmt.Errorf("E15 submit %d: %w", i, err)
		}
		info, err := c.WaitJob(id, time.Millisecond)
		if err != nil {
			return nil, err
		}
		if info.Status != farm.StatusDone {
			return nil, fmt.Errorf("E15 job %d: %s (%s)", i, info.Status, info.Error)
		}
		if info.Result.Fingerprint != standalone.Fingerprint {
			return nil, fmt.Errorf("E15 job %d DIVERGED from standalone:\nfarm:       %s\nstandalone: %s",
				i, info.Result.Fingerprint, standalone.Fingerprint)
		}
		leg, admission := "farm (cold rig build)", "cold"
		if info.Warm {
			leg, admission = "farm (warm pooled target)", "warm"
		}
		t.AddRow(leg, fmt.Sprint(info.Result.Paths),
			fmt.Sprint(info.Result.VirtualTime), "identical", admission)
		if i > 0 && !info.Warm {
			return nil, fmt.Errorf("E15 job %d was not admitted from the warm pool", i)
		}
	}

	st, err := c.PoolStats()
	if err != nil {
		return nil, err
	}
	if st.ColdBuilds == 0 || st.WarmHits == 0 {
		return nil, fmt.Errorf("E15 pool never cycled: %+v", st)
	}
	coldNS := float64(st.ColdNS) / float64(st.ColdBuilds)
	warmNS := float64(st.WarmNS) / float64(st.WarmHits)
	speedup := coldNS / warmNS
	t.Notes = append(t.Notes, fmt.Sprintf(
		"admission latency: cold %v mean over %d build(s), warm %v mean over %d hit(s) — %.0fx",
		time.Duration(coldNS).Round(time.Microsecond), st.ColdBuilds,
		time.Duration(warmNS).Round(time.Nanosecond), st.WarmHits, speedup))
	t.AddMetric("cold_admission_ns", coldNS, "ns")
	t.AddMetric("warm_admission_ns", warmNS, "ns")
	t.AddMetric("warm_admission_speedup", speedup, "x")
	t.AddMetric("farm_identity", 1, "bool")
	t.AddMetric("recycled_targets", float64(st.Recycled), "count")
	t.AddFloor("warm admission vs cold", speedup, 5)
	return t, nil
}
