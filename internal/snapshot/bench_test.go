package snapshot

import (
	"testing"

	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

// benchRecord saves a freshly built one-peripheral simulator target:
// the states the micro rows are quoted over (gpio is the small one,
// aes128 the large one).
func benchRecord(b *testing.B, periph string) *Record {
	b.Helper()
	tg, err := target.NewSimulator("bench", &vtime.Clock{}, []target.PeriphConfig{{Name: "p0", Periph: periph}})
	if err != nil {
		b.Fatal(err)
	}
	st, err := tg.Save()
	if err != nil {
		b.Fatal(err)
	}
	return &Record{HW: st, IRQEdges: []bool{false}}
}

var benchPeriphs = []string{"gpio", "aes128"}

func BenchmarkRecordEncode(b *testing.B) {
	for _, periph := range benchPeriphs {
		b.Run(periph, func(b *testing.B) {
			rec := benchRecord(b, periph)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Encode(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRecordDecode(b *testing.B) {
	for _, periph := range benchPeriphs {
		b.Run(periph, func(b *testing.B) {
			data, err := Encode(benchRecord(b, periph))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHWDigest(b *testing.B) {
	for _, periph := range benchPeriphs {
		b.Run(periph, func(b *testing.B) {
			hw := benchRecord(b, periph).HW.Get("p0")
			b.ReportAllocs()
			var d Digest
			for i := 0; i < b.N; i++ {
				d = HWDigest(hw)
			}
			_ = d
		})
	}
}

// BenchmarkStorePutMiss is a Put of content the store has never seen
// (the save half of a context switch that touched the hardware),
// released again so the store stays one record deep.
func BenchmarkStorePutMiss(b *testing.B) {
	for _, periph := range benchPeriphs {
		b.Run(periph, func(b *testing.B) {
			rec := benchRecord(b, periph)
			reg := &rec.HW.Get("p0").Vals()[0]
			s := NewStore()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				*reg = uint64(i)
				s.Release(s.Put(*rec))
			}
			if st := s.Stats(); st.DedupHits != 0 {
				b.Fatalf("%d puts hit", st.DedupHits)
			}
		})
	}
}
