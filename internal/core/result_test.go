package core

// A subtree's result is a Report: its byte form round-trips and its
// length does not depend on what it counted, its tally adds up to the
// parallel run's, and journals that carried the older result shapes are
// refused by record kind.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"hardsnap/internal/expr"
	"hardsnap/internal/journal"
	"hardsnap/internal/sim"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
	"hardsnap/internal/testseed"
)

// genResult draws a subtree result with every encoded field populated
// at random, bug snapshots included.
func genResult(rnd *rand.Rand) *SubtreeResult {
	tally, _ := quick.Value(reflect.TypeOf(Tally{}), rnd)
	r := &SubtreeResult{Index: rnd.Intn(64), Report: &Report{Tally: tally.Interface().(Tally)}}
	r.Report.Snapshots.Store = snapshot.Stats{} // a subtree's is always zero (runSubtreeOn)
	for i := rnd.Intn(5); i > 0; i-- {
		st := &symexec.State{
			ID:     rnd.Uint64(),
			Parent: rnd.Uint64(),
			PC:     rnd.Uint32(),
			Status: symexec.StatusHalted + symexec.Status(rnd.Intn(int(symexec.StatusBudget-symexec.StatusHalted)+1)),
			Steps:  rnd.Uint64(),
		}
		if rnd.Intn(2) == 0 {
			st.Console = make([]byte, rnd.Intn(40))
			rnd.Read(st.Console)
		}
		if n := rnd.Intn(4); n > 0 {
			st.Model = expr.Assignment{}
			for ; n > 0; n-- {
				st.Model[fmt.Sprintf("sym%d", rnd.Intn(100))] = rnd.Uint64()
			}
		}
		for n := rnd.Intn(3); n > 0; n-- {
			st.SymInputs = append(st.SymInputs, symexec.SymInput{Tag: rnd.Uint32(), Addr: rnd.Uint32(), Len: rnd.Uint32()})
		}
		if rnd.Intn(3) == 0 {
			st.Err = fmt.Errorf("fault %d", rnd.Intn(1000))
		}
		r.Report.Finished = append(r.Report.Finished, st)
	}
	for n := rnd.Intn(3); n > 0; n-- {
		l := &sim.Layout{Regs: []string{"ctrl", "value"}}
		value, ctrl := rnd.Uint64(), rnd.Uint64()
		vals := []uint64{ctrl, value}
		if rnd.Intn(2) == 0 {
			l.Mems, l.Depths = []string{"fifo"}, []int{2}
			vals = append(vals, rnd.Uint64(), rnd.Uint64())
		}
		hw := sim.NewHWState(l, vals)
		if r.BugSnaps == nil {
			r.BugSnaps = make(map[uint64]*snapshot.Record)
		}
		r.BugSnaps[rnd.Uint64()] = &snapshot.Record{
			HW:       target.State{{Name: "timer0", HW: *hw}},
			IRQEdges: []bool{rnd.Intn(2) == 0, rnd.Intn(2) == 0},
		}
	}
	return r
}

// TestSubtreeResultRoundTrip: the journal/wire form keeps everything
// the merge reads and is canonical. decode(encode(r)) has r's index,
// tally, path fingerprint and bug-snapshot digests, merges to the same
// Fingerprint, and encodes again to the same bytes.
func TestSubtreeResultRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := genResult(rand.New(rand.NewSource(seed)))
		data := r.Encode()
		back, err := DecodeSubtreeResult(data)
		if err != nil {
			t.Logf("seed %d: decode: %v", seed, err)
			return false
		}
		if back.Index != r.Index || back.Report.Tally != r.Report.Tally || len(back.BugSnaps) != len(r.BugSnaps) {
			t.Logf("seed %d: index, tally or snapshot count changed", seed)
			return false
		}
		for id, snap := range r.BugSnaps {
			if got := back.BugSnaps[id]; got == nil || snapshot.DigestRecord(got) != snapshot.DigestRecord(snap) {
				t.Logf("seed %d: bug snapshot %d changed", seed, id)
				return false
			}
		}
		var merged, mergedBack Report
		merged.Add(r.Report)
		mergedBack.Add(back.Report)
		if Fingerprint(&merged) != Fingerprint(&mergedBack) || merged.Tally != mergedBack.Tally {
			t.Logf("seed %d: merge differs after the round trip", seed)
			return false
		}
		if data2 := back.Encode(); !bytes.Equal(data2, data) {
			t.Logf("seed %d: re-encode: %d bytes vs %d", seed, len(data2), len(data))
			return false
		}
		return true
	}
	if err := quick.Check(prop, testseed.Quick(t, 200)); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRefusesUnfinishedStatus: a path in a subtree result is a
// finished one, so its status is one of StatusHalted…StatusBudget. The
// decoder refuses any other status byte rather than count the path.
func TestDecodeRefusesUnfinishedStatus(t *testing.T) {
	for _, status := range []symexec.Status{0, symexec.StatusRunning, 9} {
		r := &SubtreeResult{Report: &Report{Finished: []*symexec.State{{ID: 7, Status: status}}}}
		if _, err := DecodeSubtreeResult(r.Encode()); err == nil || !strings.Contains(err.Error(), "status") {
			t.Errorf("status %d: decode gave %v, want a status error", status, err)
		}
	}
}

// TestMergeEqualsSerialTraffic: in every mode, the snapshot traffic a
// 4-worker run reports is the seed phase's plus the sum of what its
// subtrees each reported for themselves, and what a subtree reports is
// its own: run again on a rig that has run every subtree before it, it
// reports the same traffic — nothing is dropped, double counted or
// carried over.
func TestMergeEqualsSerialTraffic(t *testing.T) {
	for _, mode := range []Mode{ModeHardSnap, ModeNaiveReboot, ModeNaiveShared, ModeRecordReplay} {
		t.Run(mode.String(), func(t *testing.T) {
			a, err := Setup(SetupConfig{
				Firmware:    scalingFirmware,
				Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
				Engine:      Config{Mode: mode, Searcher: symexec.BFS{}, MaxInstructions: 1_000_000, Workers: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			f, err := a.Engine.Frontier(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			want := Tally{Snapshots: a.Engine.traffic()} // the seed phase's, on the primary target

			var mu sync.Mutex
			own := make(map[int]SnapshotTraffic)
			slots := f.LocalSlots(4)
			for i, build := range slots {
				slots[i] = func(ctx context.Context, w *Worker) (Executor, error) {
					exec, err := build(ctx, w)
					if err != nil {
						return nil, err
					}
					return func(ctx context.Context, idx, attempt int) (*SubtreeResult, error) {
						res, err := exec(ctx, idx, attempt)
						if err == nil {
							mu.Lock()
							want.Add(Tally{Snapshots: res.Report.Snapshots})
							own[idx] = res.Report.Snapshots
							mu.Unlock()
						}
						return res, err
					}, nil
				}
			}
			rep, err := f.Run(ctx, slots, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(own) != 16 {
				t.Fatalf("%d subtrees ran, want 16", len(own))
			}
			want.Snapshots.Store = rep.Snapshots.Store // a reading of the shared store, not a sum
			if rep.Snapshots != want.Snapshots {
				t.Errorf("merged traffic\n  %+v\nseed phase + subtrees\n  %+v", rep.Snapshots, want.Snapshots)
			}
			if mode == ModeHardSnap && (rep.Snapshots.HWRestores == 0 || rep.Snapshots.Manager.Saves == 0) {
				t.Errorf("no traffic to compare: %+v", rep.Snapshots)
			}
			for idx := range own {
				again, err := f.RunSubtree(ctx, idx) // one pooled rig serves all sixteen
				if err != nil {
					t.Fatal(err)
				}
				if again.Report.Snapshots != own[idx] {
					t.Errorf("subtree %d on a used rig reports\n  %+v\nfirst run\n  %+v", idx, again.Report.Snapshots, own[idx])
				}
			}
		})
	}
}

// TestSubtreeResultLengthFixed: a record's length does not depend on
// the values of its counters — wall-clock solver time and
// scheduling-dependent counts included — so two runs that explored the
// same paths journal the same number of bytes.
func TestSubtreeResultLengthFixed(t *testing.T) {
	r := genResult(rand.New(rand.NewSource(1)))
	small, huge := *r.Report, *r.Report
	for i, c := range small.counters() {
		store(c, 1)
		store(huge.counters()[i], 1<<62)
	}
	if small.Solver.WallNS != 1 || huge.Solver.WallNS != 1<<62 {
		t.Fatalf("WallNS %d and %d, want 1 and 1<<62", small.Solver.WallNS, huge.Solver.WallNS)
	}
	a := (&SubtreeResult{Index: r.Index, Report: &small, BugSnaps: r.BugSnaps}).Encode()
	b := (&SubtreeResult{Index: r.Index, Report: &huge, BugSnaps: r.BugSnaps}).Encode()
	if len(a) != len(b) {
		t.Fatalf("small counters encode to %d bytes, huge ones to %d", len(a), len(b))
	}
}

// TestTallyCountersCoverTally: Tally.counters lists every numeric field
// of a Tally but Snapshots.Store exactly once, so Add, since and the
// byte form cannot miss a counter added to any of its parts.
func TestTallyCountersCoverTally(t *testing.T) {
	var tl Tally
	for i, c := range tl.counters() {
		store(c, uint64(i+1))
	}
	seen := make(map[uint64]string)
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := path + "." + v.Type().Field(i).Name; f != "Tally.Snapshots.Store" {
					walk(v.Field(i), f)
				}
			}
		case reflect.Int, reflect.Int64:
			seen[uint64(v.Int())] += " " + path
		case reflect.Uint64:
			seen[v.Uint()] += " " + path
		default:
			t.Errorf("%s: %s is not a counter type", path, v.Kind())
		}
	}
	walk(reflect.ValueOf(tl), "Tally")
	n := len(tl.counters())
	for v, fields := range seen {
		if v == 0 || v > uint64(n) || strings.Count(fields, " ") != 1 {
			t.Errorf("value %d in%s: want each field set by exactly one counter", v, fields)
		}
	}
	if len(seen) != n || n != 34 {
		t.Errorf("%d fields set by %d counters, want 34", len(seen), n)
	}
}

// TestTallyAdd: Add sums every counter field-wise — the solver's, the
// executor's and the engine's alike — which is how a parallel run's
// subtrees merge; the subtracting fold that takes a subtree's traffic
// from its rig's counters undoes it and leaves Store, a reading, as it
// was.
func TestTallyAdd(t *testing.T) {
	var a Tally
	for i, c := range a.counters() {
		store(c, uint64(i+1))
	}
	a.Snapshots.Store.Puts = 7
	b := a
	b.Add(a)
	for i, c := range b.counters() {
		if got := load(c); got != 2*uint64(i+1) {
			t.Errorf("counter %d: %d after Add, want %d", i, got, 2*(i+1))
		}
	}
	if b.Solver.WallNS != 2*a.Solver.WallNS || b.Stats.PathsCompleted != 2*a.Stats.PathsCompleted {
		t.Errorf("Add: WallNS %d, PathsCompleted %d", b.Solver.WallNS, b.Stats.PathsCompleted)
	}
	d, want := b, a
	d.Snapshots.Store.Puts, want.Snapshots.Store.Puts = 9, 9
	if d.fold(&a, true); d != want {
		t.Errorf("subtracting fold: %+v, want %+v", d, want)
	}
}

// TestLoadCampaignRefusesOlderFormat: a journal whose first record is
// a retired header kind — 1, from before the header became a
// FrontierID, or 5, the gob-encoded one — fails at LoadCampaign with
// ErrCampaignVersion, by kind alone: the kind-5 header here carries a
// payload the current header decoder accepts.
func TestLoadCampaignRefusesOlderFormat(t *testing.T) {
	for _, c := range []struct {
		kind    byte
		payload []byte
	}{
		{1, append(snapshot.AppendName(nil, "f00d"), 4, 0, 0, 0, 16, 0, 0, 0)},
		{5, appendFrontierID(nil, FrontierID{Fingerprint: "f00d", Workers: 4, Seeds: 16})},
	} {
		if _, err := decodeFrontierID(c.payload); c.kind == 5 && err != nil {
			t.Fatalf("kind-5 payload does not decode as a header: %v", err)
		}
		path := filepath.Join(t.TempDir(), "old.hsj")
		w, err := journal.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []journal.Record{{Kind: c.kind, Payload: c.payload}, {Kind: 6, Payload: []byte("gob")}} {
			if err := w.Append(r.Kind, r.Payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCampaign(path); !errors.Is(err, ErrCampaignVersion) {
			t.Fatalf("LoadCampaign of a kind-%d header: %v, want ErrCampaignVersion", c.kind, err)
		}
	}
}
