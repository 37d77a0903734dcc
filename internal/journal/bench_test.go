package journal

import (
	"path/filepath"
	"testing"
)

// subtreeRecordSize is the mean subtree-record payload of a 4-worker
// run of the 64-path scaling firmware (16 subtrees): what the campaign
// layer appends per completed subtree.
const subtreeRecordSize = 1598

// BenchmarkAppendSync is the journal's durable write: frame, append and
// fsync one subtree-sized record. The campaign layer group-commits (one
// fsync per four appends), so this is the upper bound per completion.
func BenchmarkAppendSync(b *testing.B) {
	w, err := Create(filepath.Join(b.TempDir(), "bench.journal"))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := make([]byte, subtreeRecordSize)
	b.SetBytes(subtreeRecordSize)
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
