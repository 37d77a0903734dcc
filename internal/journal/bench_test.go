package journal

import (
	"path/filepath"
	"testing"
)

// e14RecordSize is the mean subtree-record payload of an E14 run (16
// subtrees of the 64-path scaling firmware): what the campaign layer
// appends per completed subtree.
const e14RecordSize = 1598

// BenchmarkAppendSync is the journal's durable write: frame, append and
// fsync one subtree-sized record. The campaign layer group-commits (one
// fsync per four appends), so this is the upper bound per completion.
func BenchmarkAppendSync(b *testing.B) {
	w, err := Create(filepath.Join(b.TempDir(), "bench.journal"))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := make([]byte, e14RecordSize)
	b.SetBytes(e14RecordSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(3, payload); err != nil {
			b.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}
