package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"hardsnap/internal/testseed"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaign.journal")
}

func mustCreate(t *testing.T, path string) *Writer {
	t.Helper()
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func appendN(t *testing.T, w *Writer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := w.Append(byte(1+i%3), []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	w := mustCreate(t, path)
	appendN(t, w, 10)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("clean journal reported truncated")
	}
	if len(res.Records) != 10 {
		t.Fatalf("records: %d, want 10", len(res.Records))
	}
	for i, r := range res.Records {
		if want := byte(1 + i%3); r.Kind != want {
			t.Fatalf("record %d kind %d, want %d", i, r.Kind, want)
		}
		if want := fmt.Sprintf("record-%d", i); string(r.Payload) != want {
			t.Fatalf("record %d payload %q, want %q", i, r.Payload, want)
		}
	}
}

func TestEmptyJournal(t *testing.T) {
	path := tmpJournal(t)
	w := mustCreate(t, path)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || len(res.Records) != 0 {
		t.Fatalf("empty journal: %+v", res)
	}
}

func TestNotAJournal(t *testing.T) {
	path := tmpJournal(t)
	if err := os.WriteFile(path, []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(path); err != ErrNotJournal {
		t.Fatalf("err = %v, want ErrNotJournal", err)
	}
	short := filepath.Join(t.TempDir(), "short")
	if err := os.WriteFile(short, []byte("HS"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(short); err != ErrNotJournal {
		t.Fatalf("short file err = %v, want ErrNotJournal", err)
	}
}

// TestCorruptionRecovery is the corruption table the issue asks for:
// a truncated tail (process killed mid-append), a bit-flipped record
// (corruption at rest) and a torn final append must all recover the
// longest intact prefix — never garbage, never an error.
func TestCorruptionRecovery(t *testing.T) {
	build := func(t *testing.T, n int) (string, []byte) {
		path := tmpJournal(t)
		w := mustCreate(t, path)
		appendN(t, w, n)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, data
	}
	// Record i occupies [off(i), off(i+1)) past the magic header.
	recOff := func(data []byte, i int) int {
		off := len(magic)
		for k := 0; k < i; k++ {
			n := int(data[off+1]) | int(data[off+2])<<8 | int(data[off+3])<<16 | int(data[off+4])<<24
			off += hdrLen + n + trailerLen
		}
		return off
	}

	cases := []struct {
		name string
		// mutate the raw file bytes of a 6-record journal.
		mutate func(data []byte) []byte
		// want is how many intact records must survive.
		want int
	}{
		{"truncated tail: torn header", func(d []byte) []byte {
			return d[:recOff(d, 5)+2]
		}, 5},
		{"truncated tail: torn payload", func(d []byte) []byte {
			return d[:recOff(d, 5)+hdrLen+3]
		}, 5},
		{"truncated tail: torn trailer", func(d []byte) []byte {
			return d[:recOff(d, 6)-1]
		}, 5},
		{"bit flip in middle record payload", func(d []byte) []byte {
			m := append([]byte(nil), d...)
			m[recOff(m, 3)+hdrLen] ^= 0x20
			return m
		}, 3},
		{"bit flip in middle record kind", func(d []byte) []byte {
			m := append([]byte(nil), d...)
			m[recOff(m, 2)] ^= 0x01
			return m
		}, 2},
		{"bit flip in length field", func(d []byte) []byte {
			m := append([]byte(nil), d...)
			m[recOff(m, 4)+1] ^= 0x02
			return m
		}, 4},
		{"length field blown past the cap", func(d []byte) []byte {
			m := append([]byte(nil), d...)
			m[recOff(m, 1)+4] = 0xFF // top length byte: > maxPayload
			return m
		}, 1},
		{"bit flip in trailer CRC", func(d []byte) []byte {
			m := append([]byte(nil), d...)
			m[recOff(m, 1)-1] ^= 0x80
			return m
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, data := build(t, 6)
			mutated := tc.mutate(data)
			path := filepath.Join(t.TempDir(), "mut.journal")
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			res, err := Scan(path)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Truncated {
				t.Fatal("corruption not reported")
			}
			if len(res.Records) != tc.want {
				t.Fatalf("recovered %d records, want %d", len(res.Records), tc.want)
			}
			for i, r := range res.Records {
				if want := fmt.Sprintf("record-%d", i); string(r.Payload) != want {
					t.Fatalf("record %d payload %q, want %q", i, r.Payload, want)
				}
			}
		})
	}

	// Property: ANY single-bit flip anywhere past the magic header
	// recovers a clean prefix of the original records.
	_, data := build(t, 6)
	f := func(off uint16, bit uint8) bool {
		m := append([]byte(nil), data...)
		i := len(magic) + int(off)%(len(m)-len(magic))
		m[i] ^= 1 << (bit % 8)
		path := filepath.Join(t.TempDir(), "q.journal")
		if err := os.WriteFile(path, m, 0o644); err != nil {
			return false
		}
		res, err := Scan(path)
		if err != nil {
			return false
		}
		for j, r := range res.Records {
			if string(r.Payload) != fmt.Sprintf("record-%d", j) {
				return false
			}
		}
		return len(res.Records) < 6 == res.Truncated
	}
	if err := quick.Check(f, testseed.Quick(t, 200)); err != nil {
		t.Fatal(err)
	}
}

// TestAppendToTruncatesTornTail: reopening after a simulated
// mid-append kill must resume right after the last good record, and
// the overwritten tail must never resurface.
func TestAppendToTruncatesTornTail(t *testing.T) {
	path := tmpJournal(t)
	w := mustCreate(t, path)
	appendN(t, w, 4)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half (as SIGKILL mid-write would).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, res, err := AppendTo(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || len(res.Records) != 3 {
		t.Fatalf("reopen recovered %d records (truncated=%v), want 3 truncated", len(res.Records), res.Truncated)
	}
	if err := w2.Append(9, []byte("after-crash")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	final, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if final.Truncated || len(final.Records) != 4 {
		t.Fatalf("final scan: %d records (truncated=%v), want 4 clean", len(final.Records), final.Truncated)
	}
	if final.Records[3].Kind != 9 || string(final.Records[3].Payload) != "after-crash" {
		t.Fatalf("tail record: %+v", final.Records[3])
	}
}

func TestWriterStats(t *testing.T) {
	path := tmpJournal(t)
	w := mustCreate(t, path)
	appendN(t, w, 5)
	st := w.Stats()
	if st.Records != 5 {
		t.Fatalf("records: %d", st.Records)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Bytes != uint64(fi.Size()) {
		t.Fatalf("bytes: %d, file size %d", st.Bytes, fi.Size())
	}
	// AppendTo adopts the existing counters.
	w2, _, err := AppendTo(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if st2 := w2.Stats(); st2.Records != 5 || st2.Bytes != st.Bytes {
		t.Fatalf("reopened stats: %+v, want %+v", st2, st)
	}
}
