package bench

import (
	"encoding/json"
	"testing"

	"hardsnap/internal/sim"
)

// slowOnInterp is the experiment left out of the engine-identity pass:
// E2 shifts a 32k-flop scan chain cycle by cycle, which takes the
// interpreter seconds. E1 covers scan-chain save/restore on the
// interpreter for every corpus peripheral.
const slowOnInterp = "E2"

// render is a table's text followed by its metrics as `hsbench -json`
// prints them.
func render(t *testing.T, tbl *Table) string {
	t.Helper()
	metrics, err := json.Marshal(tbl.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.String() + string(metrics)
}

// TestExperimentsRegenerate runs every experiment end-to-end, checks
// the shape properties the paper's conclusions rest on, and checks that
// the rendered tables are byte-identical on the interpreter RTL engine
// and the compiled default: every experiment reports virtual time, so
// the engine may change only how fast a table is produced.
func TestExperimentsRegenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment on both RTL engines; skipped in -short mode")
	}
	tables := make(map[string]*Table)
	for _, e := range All() {
		tbl, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		tables[e.ID] = tbl
		t.Logf("\n%s", tbl)
	}

	// E1: per-method ordering scan < readback < CRIU for every corpus
	// member is visible in the rendered rows; spot check row count.
	if len(tables["E1"].Rows) != 4 {
		t.Errorf("E1 rows: %d", len(tables["E1"].Rows))
	}
	// E2: last row must be won by readback (crossover exists).
	e2 := tables["E2"].Rows
	if e2[len(e2)-1][3] != "readback" || e2[0][3] != "scan" {
		t.Errorf("E2 crossover shape broken: %v", e2)
	}
	// E5: hardsnap consistent, shared corrupted.
	for _, row := range tables["E5"].Rows {
		switch row[0] {
		case "hardsnap", "naive-reboot":
			if row[3] != "consistent" {
				t.Errorf("E5: %s should be consistent", row[0])
			}
		case "naive-shared":
			if row[3] != "CORRUPTED" {
				t.Errorf("E5: naive-shared should corrupt")
			}
		}
	}
	// E7: every transfer scenario must match.
	for _, row := range tables["E7"].Rows {
		if row[2] != "YES" {
			t.Errorf("E7: %s mismatch", row[0])
		}
	}

	prev := sim.DefaultEngine.Swap(int32(sim.EngineInterp))
	defer sim.DefaultEngine.Store(prev)
	for _, e := range All() {
		if e.ID == slowOnInterp {
			continue
		}
		tbl, err := e.Run()
		if err != nil {
			t.Fatalf("%s on the interpreter: %v", e.ID, err)
		}
		if got, want := render(t, tbl), render(t, tables[e.ID]); got != want {
			t.Errorf("%s differs by RTL engine:\ncompiled:\n%s\ninterp:\n%s", e.ID, want, got)
		}
	}
}
