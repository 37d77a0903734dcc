package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"hardsnap/internal/journal"
	"hardsnap/internal/symexec"
)

// FuzzLoadCampaign frames mutated payloads as a well-formed journal
// (right magic, lengths and CRCs, so every refusal is about the payload)
// and loads it: header, one subtree record, the same subtree record
// again. LoadCampaign must return an error or a campaign whose result
// encodes back to exactly the subtree payload (one byte form per
// result) and whose every path holds a finished status; it must not
// panic, and every count is vetted against the bytes left before
// anything is sized by it. Seeded from the records of
// a real journaled run with bug snapshots.
func FuzzLoadCampaign(f *testing.F) {
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.hsj")
	setup := chaosSetup(nil, seedPath, nil, symexec.BFS{})
	setup.Engine.KeepBugSnapshots = true
	a, err := Setup(setup)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := a.Engine.Run(); err != nil {
		f.Fatal(err)
	}
	scan, err := journal.Scan(seedPath)
	if err != nil || len(scan.Records) < 3 {
		f.Fatalf("seed journal: %v, %d records", err, len(scan.Records))
	}
	hdr := scan.Records[0].Payload
	for _, r := range scan.Records[1:] {
		if r.Kind == recSubtree {
			f.Add(hdr, r.Payload)
		}
	}
	f.Add([]byte{}, []byte{})

	path := filepath.Join(dir, "fuzz.hsj")
	f.Fuzz(func(t *testing.T, hdr, sub []byte) {
		w, err := journal.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []journal.Record{{Kind: recCampaign, Payload: hdr}, {Kind: recSubtree, Payload: sub}, {Kind: recSubtree, Payload: sub}} {
			if err := w.Append(r.Kind, r.Payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		cam, err := LoadCampaign(path)
		if err != nil {
			return
		}
		if len(cam.Results) != 1 {
			t.Fatalf("two copies of one subtree record loaded as %d results", len(cam.Results))
		}
		for idx, res := range cam.Results {
			if res.Index != idx || res.Report == nil {
				t.Fatalf("result filed under %d: %+v", idx, res)
			}
			for _, st := range res.Report.Finished {
				if st.Status < symexec.StatusHalted || st.Status > symexec.StatusBudget {
					t.Fatalf("result %d loaded path %d in status %d, not a finished one", idx, st.ID, st.Status)
				}
			}
			if again := res.Encode(); !bytes.Equal(again, sub) {
				t.Fatalf("loaded result %d encodes to %d other bytes than the %d it was read from", idx, len(again), len(sub))
			}
		}
	})
}
