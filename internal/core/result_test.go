package core

// A subtree's result is a Report: its gob form round-trips, its tally
// adds up to the parallel run's, and journals that carried the older
// result shapes are refused by name.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
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

// genResult draws a subtree result with every portable field populated
// at random, bug snapshots included.
func genResult(rnd *rand.Rand) *SubtreeResult {
	tally, _ := quick.Value(reflect.TypeOf(Tally{}), rnd)
	r := &SubtreeResult{Index: rnd.Intn(64), Report: &Report{Tally: tally.Interface().(Tally)}}
	for i := rnd.Intn(5); i > 0; i-- {
		st := &symexec.State{
			ID:     rnd.Uint64(),
			Parent: rnd.Uint64(),
			PC:     rnd.Uint32(),
			Status: symexec.Status(1 + rnd.Intn(5)),
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
			HW:       target.State{"timer0": hw},
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
		data, err := r.Encode()
		if err != nil {
			t.Logf("seed %d: encode: %v", seed, err)
			return false
		}
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
		data2, err := back.Encode()
		if err != nil || !bytes.Equal(data2, data) {
			t.Logf("seed %d: re-encode: %v, %d bytes vs %d", seed, err, len(data2), len(data))
			return false
		}
		return true
	}
	if err := quick.Check(prop, testseed.Quick(t, 200)); err != nil {
		t.Fatal(err)
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
			want := a.Engine.traffic() // the seed phase's, on the primary target

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
							want.Add(res.Report.Snapshots)
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
			want.Store = rep.Snapshots.Store // a reading of the shared store, not a sum
			if rep.Snapshots != want {
				t.Errorf("merged traffic\n  %+v\nseed phase + subtrees\n  %+v", rep.Snapshots, want)
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

// TestLoadCampaignRefusesOlderFormat: a journal whose first record is
// the pre-FrontierID header kind fails at LoadCampaign with
// ErrCampaignVersion — before any of its records is decoded into the
// current shapes, which gob would do without complaint.
func TestLoadCampaignRefusesOlderFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.hsj")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := gobEncode(struct {
		Fingerprint string
		Workers     int
		Seeds       int
	}{"f00d", 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, hdr); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCampaign(path); !errors.Is(err, ErrCampaignVersion) {
		t.Fatalf("LoadCampaign of a kind-1 header: %v, want ErrCampaignVersion", err)
	}
}
