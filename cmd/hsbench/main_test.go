package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run(runOpts{list: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSelected(t *testing.T) {
	// E5 is the fastest experiment.
	if err := run(runOpts{args: []string{"e5"}}); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSON(t *testing.T) {
	if err := run(runOpts{jsonOut: true, args: []string{"e5"}}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknown(t *testing.T) {
	if err := run(runOpts{args: []string{"e99"}}); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	err := run(runOpts{
		jsonOut:    true,
		cpuProfile: cpu,
		memProfile: mem,
		args:       []string{"e5"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
