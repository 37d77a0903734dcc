package main

import (
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// absoluteSlack widens a bound for metrics so small that a share of
// them is below what the host resolves: set-up takes 3-10 ms, so it
// may move by its bound or by 5 ms, whichever is larger.
var absoluteSlack = map[string]float64{"setup_s": 0.005}

// allowed is the bound of m as an amount, off the baseline median.
func allowed(m metricDef, baseline float64) float64 {
	return max(m.Bound*baseline, absoluteSlack[m.Name])
}

// worseAmount is how far b is on the wrong side of a, in the
// metric's unit (negative when b is better).
func worseAmount(m metricDef, a, b float64) float64 {
	if m.Better == "higher" {
		return a - b
	}
	return b - a
}

// verdict applies one metric's own bound to two sets of runs:
// "worse" when b's median is beyond the bound, "unresolved" when it
// is within the bound but either side's own spread (the distance
// between its quartiles over its median) is wider than the bound, so
// the runs cannot tell, unless every b run reads better than every a
// run; "ok" otherwise.
func verdict(m metricDef, a, b stat) string {
	limit := allowed(m, a.Median)
	if worseAmount(m, a.Median, b.Median) > limit {
		return "worse"
	}
	if m.Bound == 0 {
		return "ok" // deterministic metric, identical or better
	}
	if a.Q3-a.Q1 > limit || b.Q3-b.Q1 > limit {
		allBetter := b.Min > a.Max
		if m.Better == "lower" {
			allBetter = b.Max < a.Min
		}
		if !allBetter {
			return "unresolved"
		}
	}
	return "ok"
}

// compareMain prints one row per (workload, metric) with both medians
// and the verdict, and fails when any row is worse. It is how "two
// sets of runs agree" is checked, with a the baseline.
func compareMain(pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	byName := map[string]summary{}
	for _, s := range b.Workloads {
		byName[s.Workload] = s
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tworse by\tbound\tverdict")
	worse, unresolved := 0, 0
	for _, sa := range a.Workloads {
		sb, ok := byName[sa.Workload]
		if !ok {
			return fmt.Errorf("%s has no workload %s", pathB, sa.Workload)
		}
		for _, m := range append(append([]metricDef(nil), endToEndMetrics...), exactMetrics...) {
			ma, mb := sa.EndToEnd[m.Name], sb.EndToEnd[m.Name]
			v := verdict(m, ma, mb)
			switch v {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n", sa.Workload, m.Name, m.Unit,
				ma.Median, mb.Median, 100*ratio(worseAmount(m, ma.Median, mb.Median), ma.Median)+0, 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound", worse)
	}
	return nil
}
