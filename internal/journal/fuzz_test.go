package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hardsnap/internal/testseed"
)

// FuzzScan feeds the scanner torn tails, bit flips and hostile length
// fields. Whatever the bytes, Scan must not panic, must not allocate
// beyond a small multiple of its input (a length field claiming 256 MiB
// in a 20-byte file buys nothing), and must return exactly the intact
// prefix: re-framing the records it returns reproduces the input up to
// GoodBytes, and it reports truncation iff input is left over.
func FuzzScan(f *testing.F) {
	// Seed from a journal the writer itself produced, whole and torn.
	path := filepath.Join(f.TempDir(), "seed.journal")
	w, err := Create(path)
	if err != nil {
		f.Fatal(err)
	}
	for i, payload := range [][]byte{nil, []byte("header"), bytes.Repeat([]byte{0xA5}, 300), {0}} {
		if err := w.Append(byte(i), payload); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	f.Add(whole[:len(whole)-3])
	f.Add(whole[:len(magic)])
	hostile := append([]byte(nil), whole[:len(magic)+hdrLen]...)
	copy(hostile[len(magic)+1:], []byte{0xFF, 0xFF, 0xFF, 0x0F}) // len = maxPayload-ish
	f.Add(hostile)
	f.Add([]byte("HSJ0"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var res *ScanResult
		var err error
		grew := testseed.Allocated(func() { res, err = scan(bytes.NewReader(data), int64(len(data))) })
		if limit := uint64(64<<10 + 8*len(data)); grew > limit {
			t.Fatalf("scan of %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
		if err != nil {
			if err != ErrNotJournal {
				t.Fatalf("untyped error: %v", err)
			}
			if len(data) >= len(magic) && bytes.Equal(data[:len(magic)], magic[:]) {
				t.Fatal("good magic reported as not a journal")
			}
			return
		}
		framed := append([]byte(nil), magic[:]...)
		for _, r := range res.Records {
			framed = append(framed, encodeRecord(r)...)
		}
		if res.GoodBytes != int64(len(framed)) || len(framed) > len(data) || !bytes.Equal(framed, data[:len(framed)]) {
			t.Fatalf("records do not re-frame to the first GoodBytes=%d bytes of the input", res.GoodBytes)
		}
		if res.Truncated != (res.GoodBytes < int64(len(data))) {
			t.Fatalf("Truncated=%v with %d of %d bytes good", res.Truncated, res.GoodBytes, len(data))
		}
	})
}
