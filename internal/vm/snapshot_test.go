package vm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hardsnap/internal/asm"
	"hardsnap/internal/testseed"
)

// restoreFullCopy is the test-only hook that forces the full-copy
// path: with no anchor RestoreSnapshot cannot trust any tracking.
func restoreFullCopy(c *CPU, s *Snapshot) {
	c.anchor = nil
	c.RestoreSnapshot(s)
}

// Op codes of the dirty-restore generator (one byte each, modulo
// numDirtyOps, operands drawn from the bytes that follow).
const (
	opWrite = iota
	opWriteStraddle
	opWriteTail
	opWriteWild
	opStep
	opStepMany
	opRaiseIRQ
	opSnapshot
	opRestoreAnchor
	opRestoreAny
	opLoad
	opReset
	numDirtyOps
)

// maxDirtySnaps bounds the RAM images one sequence keeps alive.
const maxDirtySnaps = 6

// dirtyConfigs are the machine layouts the generator runs on: a page
// multiple, a RAM whose last page is short, and a RAM away from 0.
var dirtyConfigs = []Config{
	{RAMSize: 16 * pageSize},
	{RAMSize: 16*pageSize + 100},
	{RAMBase: 0x10000, RAMSize: 9*pageSize + 1, VectorBase: 0x10FC0},
}

// dirtyProgram stores through a cursor that walks RAM in steps that
// are not a divisor of the page size (so stores straddle boundaries
// sooner or later), prints, takes interrupts, and finally runs off
// the end of RAM and faults.
func dirtyProgram(tb testing.TB, cfg Config) *asm.Program {
	tb.Helper()
	src := fmt.Sprintf(`
_start:
		la r1, handler
		li r2, %d
		sw r1, 0(r2)
		sw r1, 4(r2)
		li r3, %d
loop:
		addi r4, r4, 1
		sw r4, 0(r3)
		sb r4, 4093(r3)
		mv r1, r4
		ecall 3
		ecall 7
		addi r3, r3, 1366
		j loop
handler:
		addi r5, r5, 1
		sh r5, 2(r3)
		mret
`, cfg.VectorBase, cfg.RAMBase+0x400)
	p, err := asm.Assemble(src, cfg.RAMBase)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

type opReader struct{ b []byte }

func (r *opReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *opReader) u32() uint32 {
	return uint32(r.byte()) | uint32(r.byte())<<8 | uint32(r.byte())<<16 | uint32(r.byte())<<24
}

func faultString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// diffCPUs names the first field in which two CPUs differ.
func diffCPUs(a, b *CPU) string {
	switch {
	case a.Regs != b.Regs:
		return "Regs"
	case a.PC != b.PC:
		return "PC"
	case a.EPC != b.EPC:
		return "EPC"
	case a.InHandler != b.InHandler:
		return "InHandler"
	case a.pending != b.pending:
		return "pending"
	case a.Cycles != b.Cycles:
		return "Cycles"
	case a.Stop != b.Stop:
		return "Stop"
	case faultString(a.Fault) != faultString(b.Fault):
		return "Fault"
	case !bytes.Equal(a.Console, b.Console):
		return "Console"
	}
	if !bytes.Equal(a.Mem, b.Mem) {
		for i := range a.Mem {
			if a.Mem[i] != b.Mem[i] {
				return fmt.Sprintf("Mem[%#x]", i)
			}
		}
	}
	return ""
}

// checkTracking verifies the invariant the page path rests on: every
// page not marked dirty equals the anchor, and touched lists exactly
// the marked pages.
func checkTracking(c *CPU) string {
	if c.anchor == nil {
		return ""
	}
	marked := 0
	for p := 0; p<<pageShift < len(c.Mem); p++ {
		if c.dirty[p>>6]&(1<<(p&63)) != 0 {
			marked++
			continue
		}
		lo := p << pageShift
		hi := min(lo+pageSize, len(c.Mem))
		if !bytes.Equal(c.Mem[lo:hi], c.anchor.Mem[lo:hi]) {
			return fmt.Sprintf("clean page %d differs from the anchor", p)
		}
	}
	if marked != len(c.touched) {
		return fmt.Sprintf("%d pages marked, %d listed", marked, len(c.touched))
	}
	for _, p := range c.touched {
		if c.dirty[p>>6]&(1<<(p&63)) == 0 {
			return fmt.Sprintf("page %d listed but not marked", p)
		}
	}
	return ""
}

// runDirtyOps drives the same operation sequence on a CPU as built
// and on one whose every restore is a full copy, and returns a
// description of the first divergence ("" if none).
func runDirtyOps(tb testing.TB, cfg Config, ops []byte) string {
	cfg = cfg.WithDefaults()
	prog := dirtyProgram(tb, cfg)
	fast, ref := New(cfg, nil), New(cfg, nil)
	for _, c := range []*CPU{fast, ref} {
		if err := c.Load(prog); err != nil {
			tb.Fatal(err)
		}
	}
	var fastSnaps, refSnaps []*Snapshot
	pages := uint32(len(fast.Mem)+pageSize-1) >> pageShift

	both := func(f func(c *CPU) error) string {
		if ef, er := f(fast), f(ref); faultString(ef) != faultString(er) {
			return fmt.Sprintf("errors differ: %v vs %v", ef, er)
		}
		return ""
	}
	write := func(addr uint32, r *opReader) string {
		size := 1 << (r.byte() % 3)
		val := r.u32()
		return both(func(c *CPU) error { return c.WriteMem(addr, size, val) })
	}
	restore := func(i int) string {
		fast.RestoreSnapshot(fastSnaps[i])
		restoreFullCopy(ref, refSnaps[i])
		return diffCPUs(fast, ref)
	}

	r := &opReader{b: ops}
	for n := 0; len(r.b) > 0; n++ {
		op := r.byte() % numDirtyOps
		var bad string
		switch op {
		case opWrite:
			bad = write(cfg.RAMBase+r.u32()%cfg.RAMSize, r)
		case opWriteStraddle:
			boundary := (1 + r.u32()%(pages-1)) << pageShift
			bad = write(cfg.RAMBase+boundary-1-uint32(r.byte()%3), r)
		case opWriteTail:
			bad = write(cfg.RAMBase+cfg.RAMSize-1-uint32(r.byte()%8), r)
		case opWriteWild:
			addr := r.u32()
			if addr&0x100 != 0 {
				addr |= 0xFFFFFFF8
			}
			bad = write(addr, r)
		case opStep, opStepMany:
			steps := 1 + int(r.byte()%8)
			if op == opStepMany {
				steps *= 16
			}
			for i := 0; i < steps; i++ {
				if fast.Step() != ref.Step() {
					bad = "Step results differ"
				}
			}
		case opRaiseIRQ:
			irq := int(r.byte() % 3)
			fast.RaiseIRQ(irq)
			ref.RaiseIRQ(irq)
		case opSnapshot:
			fs, rs := fast.Snapshot(), ref.Snapshot()
			if len(fastSnaps) < maxDirtySnaps {
				fastSnaps, refSnaps = append(fastSnaps, fs), append(refSnaps, rs)
			} else {
				i := int(r.byte()) % maxDirtySnaps
				fastSnaps[i], refSnaps[i] = fs, rs
			}
		case opRestoreAnchor:
			for i, s := range fastSnaps {
				if s == fast.anchor {
					bad = restore(i)
					break
				}
			}
		case opRestoreAny:
			if i := int(r.byte()); len(fastSnaps) > 0 {
				bad = restore(i % len(fastSnaps))
			}
		case opLoad:
			bad = both(func(c *CPU) error { return c.Load(prog) })
		case opReset:
			fast.Reset()
			ref.Reset()
		}
		if bad == "" {
			bad = checkTracking(fast)
		}
		if bad != "" {
			return fmt.Sprintf("op %d (code %d): %s", n, op, bad)
		}
	}
	if d := diffCPUs(fast, ref); d != "" {
		return "at end of sequence: " + d
	}
	return ""
}

// randomDirtyOps draws a sequence long enough to reach every
// interleaving the generator knows: about n operations.
func randomDirtyOps(seed int64, n int) []byte {
	ops := make([]byte, 6*n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// TestDirtyRestoreMatchesFullCopy is the property behind the page
// path: whatever the interleaving of stores, steps, interrupts,
// snapshots, restores (of the anchor and of older snapshots), loads
// and resets, a CPU that restores by dirty pages is indistinguishable
// from one that always copies the whole RAM.
func TestDirtyRestoreMatchesFullCopy(t *testing.T) {
	for i, cfg := range dirtyConfigs {
		t.Run(fmt.Sprintf("ram%d", i), func(t *testing.T) {
			f := func(seed int64) bool {
				if bad := runDirtyOps(t, cfg, randomDirtyOps(seed, 300)); bad != "" {
					t.Errorf("seed %d: %s", seed, bad)
					return false
				}
				return true
			}
			if err := quick.Check(f, testseed.Quick(t, 40)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzDirtyRestore drives the same generator from raw bytes; the
// first byte picks the machine layout.
func FuzzDirtyRestore(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, opSnapshot, opWriteStraddle, 3, 0, 0, 0, 0, 2, 1, 2, 3, 4, opRestoreAnchor})
	f.Add([]byte{1, opSnapshot, opWriteTail, 0, 2, 9, 9, 9, 9, opWriteTail, 5, 2, 9, 9, 9, 9, opRestoreAnchor})
	f.Add([]byte{2, opSnapshot, opStepMany, 7, opSnapshot, opStepMany, 7, opRestoreAny, 0, opRestoreAny, 1, opRestoreAnchor})
	f.Add([]byte{0, opStepMany, 3, opSnapshot, opReset, opLoad, opStepMany, 1, opRestoreAny, 0, opLoad, opRestoreAnchor})
	f.Add([]byte{0, opSnapshot, opWriteWild, 0, 1, 0, 0, 2, 1, 1, 1, 1, opRaiseIRQ, 1, opStepMany, 7, opRestoreAnchor})
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(append([]byte{byte(seed)}, randomDirtyOps(seed, 200)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := dirtyConfigs[int(data[0])%len(dirtyConfigs)]
		if bad := runDirtyOps(t, cfg, data[1:]); bad != "" {
			t.Fatal(bad)
		}
	})
}

// TestAnchorRestoreCopiesOnlyDirtyPages is the white-box half: N
// back-to-back restores of the anchor each take the page path. A
// sentinel poked into a page no store went through (behind WriteMem's
// back, which is exactly what the contract forbids) survives every
// one of them, where a full copy would wipe it; the pages that were
// stored to come back.
// TestFillInputMatchesByteStores: FillInput leaves the RAM, the dirty
// bits and the touched pages that storing the input byte by byte
// through WriteMem would, for buffers that cross a page boundary, for
// inputs shorter (zero-filled) and longer (cut) than the buffer, and
// for an empty buffer.
func TestFillInputMatchesByteStores(t *testing.T) {
	cfg := Config{RAMBase: 0x1000, RAMSize: 3 * pageSize}
	cases := []struct {
		addr, length uint32
		input        string
	}{
		{0x1000, 8, "abcdefgh"},
		{0x1000 + pageSize - 3, 6, "xy"},
		{0x1000 + 3*pageSize - 1, 1, "longer than the buffer"},
		{0x1000 + 100, 0, "abc"},
		{0x1000 + 10, MaxInput, "spans two pages"},
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		var cpus [2]*CPU
		for i := range cpus {
			cpus[i] = New(cfg, nil)
		}
		rng.Read(cpus[0].Mem)
		copy(cpus[1].Mem, cpus[0].Mem)
		for _, c := range cpus {
			c.Snapshot()
			c.Regs[1], c.Regs[2] = tc.addr, tc.length
		}
		cpus[0].FillInput([]byte(tc.input))
		for i := uint32(0); i < tc.length; i++ {
			var b byte
			if int(i) < len(tc.input) {
				b = tc.input[i]
			}
			if err := cpus[1].WriteMem(tc.addr+i, 1, uint32(b)); err != nil {
				t.Fatal(err)
			}
		}
		name := fmt.Sprintf("%d bytes at %#x", tc.length, tc.addr)
		if d := diffCPUs(cpus[0], cpus[1]); d != "" {
			t.Errorf("%s: FillInput and byte stores differ in %s", name, d)
		}
		if fmt.Sprint(cpus[0].touched, cpus[0].dirty) != fmt.Sprint(cpus[1].touched, cpus[1].dirty) {
			t.Errorf("%s: FillInput touched %v (dirty %x), byte stores %v (dirty %x)",
				name, cpus[0].touched, cpus[0].dirty, cpus[1].touched, cpus[1].dirty)
		}
	}
}

func TestAnchorRestoreCopiesOnlyDirtyPages(t *testing.T) {
	cpu := New(Config{RAMSize: 8*pageSize + 10}, nil)
	snap := cpu.Snapshot()
	const sentinel = 5*pageSize + 7
	cpu.Mem[sentinel] = 0xEE
	for i := 0; i < 10; i++ {
		// Page 1, pages 2+3 (straddling store) and the short last page.
		for _, addr := range []uint32{pageSize + 4, 3*pageSize - 2, 8*pageSize + 6} {
			if err := cpu.WriteMem(addr, 4, 0xA5A5A5A5); err != nil {
				t.Fatal(err)
			}
		}
		if got := fmt.Sprint(cpu.touched); got != "[1 2 3 8]" {
			t.Fatalf("restore %d: touched pages %s, want [1 2 3 8]", i, got)
		}
		cpu.RestoreSnapshot(snap)
		if len(cpu.touched) != 0 || cpu.anchor != snap {
			t.Fatalf("restore %d: %d pages still touched, anchor kept: %v", i, len(cpu.touched), cpu.anchor == snap)
		}
		if cpu.Mem[sentinel] != 0xEE {
			t.Fatalf("restore %d copied a page nothing stored to", i)
		}
		cpu.Mem[sentinel] = 0
		if !bytes.Equal(cpu.Mem, snap.Mem) {
			t.Fatalf("restore %d left a dirtied page behind", i)
		}
		cpu.Mem[sentinel] = 0xEE
	}

	// Any other snapshot, and any restore after Reset, is a full copy:
	// it wipes the sentinel.
	cpu.Mem[sentinel] = 0
	other := cpu.Snapshot()
	if cpu.anchor != snap {
		t.Fatal("Snapshot re-anchored a CPU that had an anchor")
	}
	cpu.Mem[sentinel] = 0xEE
	cpu.RestoreSnapshot(other)
	if cpu.Mem[sentinel] != 0 || cpu.anchor != other {
		t.Fatal("restore of a non-anchor snapshot did not copy the whole RAM and re-anchor")
	}
	cpu.Reset()
	cpu.Mem[sentinel] = 0xEE
	cpu.RestoreSnapshot(other)
	if cpu.Mem[sentinel] != 0 {
		t.Fatal("restore after Reset did not copy the whole RAM")
	}
}

func TestRestoreSnapshotRAMSizeMismatchPanics(t *testing.T) {
	snap := New(Config{RAMSize: 2 * pageSize}, nil).Snapshot()
	cpu := New(Config{RAMSize: 3 * pageSize}, nil)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "8192") || !strings.Contains(msg, "12288") {
			t.Fatalf("panic %q does not name both RAM sizes", msg)
		}
	}()
	cpu.RestoreSnapshot(snap)
	t.Fatal("restore of a snapshot from a different RAM size did not panic")
}

// BenchmarkRestoreSnapshot is the reset path's micro row: the return
// to the anchor after an exec that dirtied 0, 1 or 8 pages of the
// default 1 MiB RAM, and the full-copy fallback.
func BenchmarkRestoreSnapshot(b *testing.B) {
	for _, bc := range []struct {
		name      string
		pages     uint32
		nonAnchor bool
	}{
		{"clean", 0, false},
		{"1page", 1, false},
		{"8pages", 8, false},
		{"non-anchor", 1, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cpu := New(Config{}, nil)
			snap, other := cpu.Snapshot(), cpu.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p := uint32(0); p < bc.pages; p++ {
					if err := cpu.WriteMem(p<<pageShift+16, 4, uint32(i)); err != nil {
						b.Fatal(err)
					}
				}
				if bc.nonAnchor {
					// Alternating between two snapshots: never the anchor.
					snap, other = other, snap
				}
				cpu.RestoreSnapshot(snap)
			}
		})
	}
}

// BenchmarkStep is the interpreter's micro row: ns per retired
// instruction over a loop of ALU, store, load and branch.
func BenchmarkStep(b *testing.B) {
	p, err := asm.Assemble(`
		li r2, 0x2000
loop:
		addi r1, r1, 1
		sw r1, 0(r2)
		lw r3, 0(r2)
		j loop
	`, 0)
	if err != nil {
		b.Fatal(err)
	}
	cpu := New(Config{}, nil)
	if err := cpu.Load(p); err != nil {
		b.Fatal(err)
	}
	cpu.Snapshot() // anchored, as in a fuzz campaign: stores pay for marking
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !cpu.Step() {
			b.Fatalf("stopped: %v (%v)", cpu.Stop, cpu.Fault)
		}
	}
}
