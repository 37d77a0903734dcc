package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"hardsnap/internal/bus"
	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

// Tracing is harness-side only: spans are opened around the harness's
// own calls into the layers and by a target.Interface decorator handed
// to the engine through core.SetupConfig.Target. Nothing inside the
// program under test is instrumented (that is a later issue), so a
// span's self time is everything under it that no child span covers.

// kind names a span. Target-decorator kinds come first so per-kind
// totals index a small array.
type kind uint8

const (
	kIO kind = iota
	kAdvance
	kSave
	kRestore
	kRestoreDelta
	kAdopt
	kSpawn
	numTargetKinds

	kRep
	kSetup
	kRun
	kAssemble
	kTargetBuild
	kConnect
	kCoreSetup
)

var kindNames = map[kind]string{
	kIO: "target.io", kAdvance: "target.advance", kSave: "target.save",
	kRestore: "target.restore", kRestoreDelta: "target.restore_delta",
	kAdopt: "target.adopt", kSpawn: "target.spawn",
	kRep: "rep", kSetup: "setup", kRun: "run", kAssemble: "asm.assemble",
	kTargetBuild: "target.build", kConnect: "remote.connect", kCoreSetup: "core.setup",
}

// span is one timed interval. Parent indexes the harness buffer
// (buffer 0; -1 for the root): harness spans nest there, and every
// decorator span is a child of the run span.
type span struct {
	Kind   kind
	Parent int32
	Start  int64 // ns since the tracer's epoch
	End    int64
}

// spanBuf is an append-only span list owned by one goroutine at a
// time: the harness's own spans, or one decorated target (the engine
// never shares a target between workers), so recording takes no lock.
type spanBuf struct {
	spans []span
}

// tracer is the in-memory span recorder of one traced rep.
type tracer struct {
	rep   int
	epoch time.Time

	mu   sync.Mutex
	bufs []*spanBuf
	// targets are the decorated targets, the root first.
	targets []*tracedTarget
	// run is the harness-buffer index of the run span, the parent of
	// every decorator span.
	run int32
	// transcript is the root target's first port operations: the
	// workload's own hardware transcript, replayed by the sim probe.
	transcript []busOp
	// clockNS is what an empty decorator span measures: the part of
	// the clock reads that falls inside every span, calibrated once
	// and taken off the per-kind totals.
	clockNS int64
}

func newTracer(rep int) *tracer {
	t := &tracer{rep: rep, epoch: time.Now(), run: -1}
	t.newBuf(64)
	cal := &tracedTarget{tr: t, buf: &spanBuf{spans: make([]span, 0, 1024)}}
	for i := 0; i < cap(cal.buf.spans); i++ {
		cal.close(cal.open(kIO))
	}
	ds := make([]float64, len(cal.buf.spans))
	for i, s := range cal.buf.spans {
		ds[i] = float64(s.End - s.Start)
	}
	sort.Float64s(ds)
	t.clockNS = int64(median(ds))
	return t
}

func (t *tracer) newBuf(capacity int) *spanBuf {
	b := &spanBuf{spans: make([]span, 0, capacity)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// decorate wraps tgt; SpawnWorker calls it from worker goroutines.
func (t *tracer) decorate(tgt target.Interface) *tracedTarget {
	d := &tracedTarget{Interface: tgt, tr: t, buf: t.newBuf(1 << 16)}
	t.mu.Lock()
	d.root = len(t.targets) == 0
	t.targets = append(t.targets, d)
	t.mu.Unlock()
	return d
}

// wrap decorates tgt when tracing is on and returns it unchanged
// otherwise.
func (t *tracer) wrap(tgt target.Interface) target.Interface {
	if t == nil {
		return tgt
	}
	return t.decorate(tgt)
}

// reset forgets the decorator spans and the transcript recorded so
// far (a probe's warm-up).
func (t *tracer) reset() {
	for _, b := range t.bufs[1:] {
		b.spans = b.spans[:0]
	}
	t.transcript = t.transcript[:0]
}

// cycles is the clock cycles the decorated hardware ran: commanded
// advances plus one per register transaction, over every target.
func (t *tracer) cycles() float64 {
	var n uint64
	for _, d := range t.targets {
		st := d.Interface.Stats()
		n += st.Cycles + st.IOOps
	}
	return float64(n)
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a harness span and returns its index; a nil tracer
// records nothing, so untraced reps run the same code.
func (t *tracer) begin(k kind, parent int32) int32 {
	if t == nil {
		return -1
	}
	h := t.bufs[0]
	h.spans = append(h.spans, span{Kind: k, Parent: parent, Start: t.now()})
	id := int32(len(h.spans) - 1)
	if k == kRun {
		t.run = id
	}
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.bufs[0].spans[id].End = t.now()
}

// harnessMS returns the total duration of harness spans of one kind.
func (t *tracer) harnessMS(k kind) float64 {
	var ns int64
	for _, s := range t.bufs[0].spans {
		if s.Kind == k {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e6
}

// targetTotals sums decorator spans by kind.
type targetTotals struct {
	count [numTargetKinds]uint64
	ns    [numTargetKinds]int64
}

func (tt targetTotals) allNS() int64 {
	var ns int64
	for _, v := range tt.ns {
		ns += v
	}
	return ns
}

func (t *tracer) targetTotals() targetTotals {
	var tt targetTotals
	for _, b := range t.bufs[1:] {
		for _, s := range b.spans {
			tt.count[s.Kind]++
			tt.ns[s.Kind] += s.End - s.Start
		}
	}
	for k := range tt.ns {
		tt.ns[k] = max(tt.ns[k]-int64(tt.count[k])*t.clockNS, 0)
	}
	return tt
}

// write dumps every span once, at exit, for offline inspection.
func (t *tracer) write(path string) error {
	type jsonSpan struct {
		Name   string `json:"name"`
		Rep    int    `json:"rep"`
		Buf    int    `json:"buf"`
		Parent int32  `json:"parent"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	var out []jsonSpan
	for bi, b := range t.bufs {
		for _, s := range b.spans {
			out = append(out, jsonSpan{kindNames[s.Kind], t.rep, bi, s.Parent, s.Start, s.End})
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// busOp is one recorded port operation.
type busOp struct {
	write   bool
	advance uint64 // > 0: an Advance(n), offset/value unused
	offset  uint32
	value   uint32
}

// transcriptCap bounds the recorded transcript; the probes only need
// a representative prefix.
const transcriptCap = 4096

// tracedTarget decorates a target.Interface: ports, Advance and the
// snapshot calls are timed, SpawnWorker hands out decorated children,
// everything else forwards untouched through the embedded interface.
type tracedTarget struct {
	target.Interface
	tr  *tracer
	buf *spanBuf
	// root marks the first decorated target, whose port operations
	// are recorded into the tracer's transcript.
	root bool
}

func (d *tracedTarget) open(k kind) int {
	d.buf.spans = append(d.buf.spans, span{Kind: k, Parent: d.tr.run, Start: d.tr.now()})
	return len(d.buf.spans) - 1
}

func (d *tracedTarget) close(i int) { d.buf.spans[i].End = d.tr.now() }

func (d *tracedTarget) record(op busOp) {
	if d.root && len(d.tr.transcript) < transcriptCap {
		d.tr.transcript = append(d.tr.transcript, op)
	}
}

func (d *tracedTarget) Port(name string) (bus.Port, error) {
	p, err := d.Interface.Port(name)
	if err != nil {
		return nil, err
	}
	return &tracedPort{Port: p, d: d}, nil
}

func (d *tracedTarget) Advance(n uint64) error {
	d.record(busOp{advance: n})
	i := d.open(kAdvance)
	err := d.Interface.Advance(n)
	d.close(i)
	return err
}

func (d *tracedTarget) Save() (target.State, error) {
	i := d.open(kSave)
	s, err := d.Interface.Save()
	d.close(i)
	return s, err
}

func (d *tracedTarget) Restore(s target.State) error {
	i := d.open(kRestore)
	err := d.Interface.Restore(s)
	d.close(i)
	return err
}

func (d *tracedTarget) RestoreDelta(s target.State) (bool, error) {
	i := d.open(kRestoreDelta)
	ok, err := d.Interface.RestoreDelta(s)
	d.close(i)
	if !ok && err == nil {
		// No delta path on this target: the caller falls back to
		// Restore, which is the span that counts.
		d.buf.spans = d.buf.spans[:i]
	}
	return ok, err
}

func (d *tracedTarget) AdoptState(s target.State) error {
	i := d.open(kAdopt)
	err := d.Interface.AdoptState(s)
	d.close(i)
	return err
}

func (d *tracedTarget) SpawnWorker(name string, clock *vtime.Clock, stream int) (target.Interface, error) {
	i := d.open(kSpawn)
	child, err := d.Interface.SpawnWorker(name, clock, stream)
	d.close(i)
	if err != nil {
		return nil, err
	}
	return d.tr.decorate(child), nil
}

// tracedPort times one peripheral's register port. It always offers
// Flush so a batching port underneath (the remote client's) keeps its
// barrier; on a plain port Flush is a no-op, exactly as if absent.
type tracedPort struct {
	bus.Port
	d *tracedTarget
}

var _ bus.Flusher = (*tracedPort)(nil)

func (p *tracedPort) ReadReg(offset uint32) (uint32, error) {
	p.d.record(busOp{offset: offset})
	i := p.d.open(kIO)
	v, err := p.Port.ReadReg(offset)
	p.d.close(i)
	return v, err
}

func (p *tracedPort) WriteReg(offset uint32, v uint32) error {
	p.d.record(busOp{write: true, offset: offset, value: v})
	i := p.d.open(kIO)
	err := p.Port.WriteReg(offset, v)
	p.d.close(i)
	return err
}

func (p *tracedPort) Flush() error {
	f, ok := p.Port.(bus.Flusher)
	if !ok {
		return nil
	}
	i := p.d.open(kIO)
	err := f.Flush()
	p.d.close(i)
	return err
}
