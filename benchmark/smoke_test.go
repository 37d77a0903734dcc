package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at 1% size through the benchmark's own
// rep code path, once untraced and once traced, and asserts only
// deterministic facts: no failure, equal fingerprints, every declared
// metric emitted. No wall-clock assertion, so it cannot fail for
// reasons of machine load.
func TestSmoke(t *testing.T) {
	scratchRoot = t.TempDir()
	emitted := map[string]bool{}
	for i := range workloads {
		w := &workloads[i]
		plain := runRep(w, 0, 1, 0.01, false, "")
		traced := runRep(w, 1, 1, 0.01, true, "")
		s := summarize(w, []repResult{plain, traced}, "")
		if s.Failed != 0 {
			t.Errorf("%s: fail_share %d/%d: %v", w.name, s.Failed, s.Attempted, s.Failures)
			continue
		}
		if plain.Work == 0 {
			t.Errorf("%s: no work done", w.name)
		}
		for _, m := range append(append([]metricDef(nil), endToEndMetrics...), exactMetrics...) {
			if st, ok := s.EndToEnd[m.Name]; !ok || st.N == 0 {
				t.Errorf("%s: end-to-end metric %s not emitted", w.name, m.Name)
			}
		}
		for name := range s.Layer {
			emitted[name] = true
		}
	}
	known := map[string]bool{}
	for _, m := range layerMetrics {
		known[m.Name] = true
		if !emitted[m.Name] {
			t.Errorf("per-layer metric %s is emitted by no workload", m.Name)
		}
	}
	for name := range emitted {
		if !known[name] {
			t.Errorf("workloads emit %s, which layerMetrics does not declare", name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this
// package identical, and every name within the contract's alphabet.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q breaks the contract's limits", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range b.EndToEnd {
		if got := (metricDef{m.Name, m.Unit, m.Better, m.Bound}); got != endToEndMetrics[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, endToEndMetrics[i])
		}
		if !name.MatchString(m.Name) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q breaks the contract's limits", m.Name)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		if got := (metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better}); got != layerMetrics[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, layerMetrics[i])
		}
		if !name.MatchString(m.Name) {
			t.Errorf("per-layer metric %q breaks the contract's limits", m.Name)
		}
	}
}
