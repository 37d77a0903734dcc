package remote

import (
	"net"
	"testing"

	"hardsnap/internal/sim"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

// BenchmarkWireSaveRestore is one context switch's snapshot traffic
// over an in-process pipe: a save of content new to both ends, then a
// restore of another record. frames/op is the wire round trips that
// costs, the register write's batch frame included.
func BenchmarkWireSaveRestore(b *testing.B) {
	cConn, sConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = NewServer(newV3Target(b)).ServeConn(sConn)
	}()
	defer func() { cConn.Close(); sConn.Close(); <-done }()
	c, err := Connect(cConn, &vtime.Clock{})
	if err != nil {
		b.Fatal(err)
	}
	gpio, err := c.Port("gpio0")
	if err != nil {
		b.Fatal(err)
	}
	prev, err := c.Save()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	base := c.WireStats().Frames
	for i := 0; i < b.N; i++ {
		if err := gpio.WriteReg(0x00, uint32(i+1)); err != nil {
			b.Fatal(err)
		}
		var st target.State
		if st, err = c.Save(); err != nil {
			b.Fatal(err)
		}
		if err := c.Restore(prev); err != nil {
			b.Fatal(err)
		}
		prev = st
	}
	b.ReportMetric(float64(c.WireStats().Frames-base)/float64(b.N), "frames/op")
}

// BenchmarkChunkCodec encodes and decodes (digest check included) one
// peripheral state of the size the gpio model saves.
func BenchmarkChunkCodec(b *testing.B) {
	st, err := newV3Target(b).Save()
	if err != nil {
		b.Fatal(err)
	}
	hw := st.Get("gpio0")
	d := snapshot.HWDigest(hw)
	var buf []byte
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = appendChunk(buf[:0], d, hw)
		}
	})
	b.Run("decode", func(b *testing.B) {
		buf, n := appendChunk(nil, d, hw)
		ch := wireChunk{Digest: d, Data: buf[len(buf)-n:]}
		b.ReportAllocs()
		var got *sim.HWState
		for i := 0; i < b.N; i++ {
			if got, err = snapshot.DecodeChunk(ch.Data, ch.Digest); err != nil {
				b.Fatal(err)
			}
		}
		_ = got
	})
}
