// Package snapshot implements HardSnap's snapshotting controller
// bookkeeping: a content-addressed store of complete hardware states,
// and the one byte form a hardware snapshot has anywhere outside the
// process (codec.go): crash reports and journal records on disk, the
// bug snapshots a dist node returns, the chunks of the remote wire,
// and the preimage of every content address.
//
// The store is copy-on-write all the way down. Each stored record is
// keyed by a digest of its serialized state: identical states — the
// common case right after a fork, and whenever the hardware was not
// touched between context switches — collapse to one immutable,
// reference-counted entry, so a fork costs a refcount increment
// instead of a second full deep copy. One level below, individual
// peripheral states are interned in a shared pool keyed by their own
// digests, so two records that differ in one peripheral share the
// others structurally (the "delta encoding" of the pipeline: only
// changed peripherals occupy new memory). The pool is also indexed by
// content: a state it already holds is named by looking its vector up
// (confirmed by equal values and Layout.Check), so only a state new to
// the store is encoded and hashed. Immutability is what makes the
// sharing safe and removes the defensive clone on Get: callers receive
// the canonical record and must not mutate it.
//
// In memory a record's hardware is a target.State: one {Name, HW}
// entry per peripheral in ascending name order, the order the byte
// form writes, so the encoder walks it without sorting (and refuses a
// state out of that order). Each HW is a sim.HWState: a value vector in
// the order of its sim.Layout, whose names are sorted as the byte form
// writes them, so the encoder walks layout and vector once. The decoder
// builds each state a layout of its own from the names it reads.
//
// Byte layout (all integers little-endian, every count and length 32
// bits, a name is len(4) bytes, names written in ascending order so
// equal states encode to equal bytes):
//
//	state:    nregs(4) {name value(8)}*
//	          nmems(4) {name depth(4) word(8)*}*
//	          ninputs(4) {name value(8)}*
//	chunk:    len(4) state[len]
//	record:   magic(4)="HSSR" version(1)=3 len(4) crc32(4) payload[len]
//	payload:  nedges(4) level(1)*
//	          nperiphs(4) {name digest(32) inline(1) [chunk if inline]}*
//
// HWDigest, a peripheral's content address, is the SHA-256 of its
// state bytes; a received chunk is therefore verified by hashing the
// bytes it arrived as. An encoded record carries every chunk inline
// (inline is always 1). DigestRecord, a record's content address, is
// the SHA-256 of its payload with every chunk omitted (inline 0, no
// chunk). crc32 is IEEE over the payload.
//
// A decoder checks the header (magic, version, exact length, CRC)
// before it reads the payload, checks every count against the bytes
// left before it sizes anything by it, refuses names out of order,
// levels and flags other than 0 and 1, an omitted chunk and trailing
// bytes, and checks each chunk against the digest it travelled under.
// Whatever it refuses is a typed integrity error (class
// target.Integrity). Versions 1 and 2 were gob payloads and are
// refused like any unknown version.
package snapshot

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hardsnap/internal/sim"
	"hardsnap/internal/target"
)

// ID names one live reference to a stored snapshot; 0 is never issued
// (the engine uses 0 as its "no snapshot" sentinel).
type ID uint64

// Digest is a content address: of a record (DigestRecord) or of one
// peripheral's state (HWDigest). Equal digests imply bit-identical
// restored states.
type Digest [sha256.Size]byte

// Record is one stored hardware snapshot plus controller-side
// metadata that must travel with it.
type Record struct {
	HW target.State
	// IRQEdges preserves the bus edge-detector levels so restored
	// states do not see spurious interrupt edges.
	IRQEdges []bool
}

// hwBytes is the in-memory footprint of one peripheral state: its
// value vector (the names live in its layout).
func hwBytes(hw *sim.HWState) uint64 { return uint64(len(hw.Vals())) * 8 }

// poolEntry is one interned peripheral state, shared by every record
// that contains it.
type poolEntry struct {
	hw     *sim.HWState
	digest Digest // HWDigest(hw), the pool key
	// next chains the entries whose vectors share one content key in
	// the store's index.
	next *poolEntry
	refs int
}

// entry is one immutable content-addressed record.
type entry struct {
	rec    *Record
	digest Digest
	// periphs are the pool keys of the record's peripheral states,
	// needed to drop pool references when the entry dies.
	periphs []Digest
	refs    int
	bytes   uint64
}

// Stats are cumulative store-side counters.
type Stats struct {
	// Puts counts Put/Update calls that attached content to an ID.
	Puts uint64
	// Gets counts successful Get calls.
	Gets uint64
	// Releases counts successful Release calls.
	Releases uint64
	// PeakLive is the high-water mark of live IDs.
	PeakLive int
	// DedupHits counts Put/Update/Adopt calls satisfied by an
	// existing identical record (refcount++ instead of a copy).
	DedupHits uint64
	// PeriphStored / PeriphShared count peripheral states that had to
	// be materialized vs. structurally shared from the intern pool.
	PeriphStored uint64
	PeriphShared uint64
	// BytesStored is the cumulative unique state bytes materialized;
	// BytesShared is the cumulative bytes avoided by whole-record
	// dedup and per-peripheral sharing. BytesShared/(Stored+Shared)
	// is the store's delta ratio.
	BytesStored uint64
	BytesShared uint64
	// BytesMaterialized is the cumulative bytes handed out by Get.
	BytesMaterialized uint64
}

// idStripeCount is the number of independently locked ID-table
// stripes. IDs are dense and monotonically allocated, so id %
// idStripeCount spreads concurrent workers evenly.
const idStripeCount = 16

type idStripe struct {
	mu  sync.RWMutex
	ids map[ID]Digest
}

// Store holds snapshots. The zero value is not usable; call NewStore.
//
// The store is safe for concurrent use by many exploration workers:
// the ID table is lock-striped, the content tables (entries, intern
// pool and its index) sit behind one RWMutex, and all cumulative
// counters are atomics, so Put/Get/Release from sibling workers contend
// only when they touch the same stripe or mutate content. A state the
// pool holds is named under the read lock; a new one is hashed outside
// every lock. Ownership contract: each ID belongs to exactly
// one state (and therefore one worker at a time); concurrent
// Update/Release of the *same* ID is a caller bug, as it always was.
type Store struct {
	next    atomic.Uint64
	stripes [idStripeCount]idStripe

	// cmu guards entries, pool, index and their refcounts (the tables
	// are linked: an entry holds references into the pool, and the
	// index lists the pool's entries).
	cmu     sync.RWMutex
	entries map[Digest]*entry
	pool    map[Digest]*poolEntry
	// index finds a pooled state by its vector: key's value, chained
	// through poolEntry.next. key nil names every state by hashing
	// it; tests set it so, or to a key that collides, to check that
	// lookup names exactly what hashing does.
	index map[uint64]*poolEntry
	key   func(vals []uint64) uint64

	puts              atomic.Uint64
	gets              atomic.Uint64
	releases          atomic.Uint64
	dedupHits         atomic.Uint64
	periphStored      atomic.Uint64
	periphShared      atomic.Uint64
	bytesStored       atomic.Uint64
	bytesShared       atomic.Uint64
	bytesMaterialized atomic.Uint64
	live              atomic.Int64
	peakLive          atomic.Int64
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{
		entries: make(map[Digest]*entry),
		pool:    make(map[Digest]*poolEntry),
		index:   make(map[uint64]*poolEntry),
		key:     contentKey,
	}
	for i := range s.stripes {
		s.stripes[i].ids = make(map[ID]Digest)
	}
	return s
}

// drop removes a dead entry and its pool references. Caller holds cmu
// for writing.
func (s *Store) drop(ent *entry) {
	delete(s.entries, ent.digest)
	for _, pd := range ent.periphs {
		if pe, ok := s.pool[pd]; ok {
			pe.refs--
			if pe.refs <= 0 {
				delete(s.pool, pd)
				s.unindex(pe)
			}
		}
	}
}

func (s *Store) stripe(id ID) *idStripe {
	return &s.stripes[uint64(id)%idStripeCount]
}

// bumpLive increments the live-reference count and maintains the
// high-water mark with a CAS loop.
func (s *Store) bumpLive() {
	l := s.live.Add(1)
	for {
		p := s.peakLive.Load()
		if l <= p || s.peakLive.CompareAndSwap(p, l) {
			return
		}
	}
}

// Put stores a snapshot and returns a new ID referencing it. If an
// identical record is already stored, the new ID shares it (refcount
// increment, no copy). The caller keeps ownership of rec; the store
// never aliases caller memory.
func (s *Store) Put(rec Record) ID {
	id, _ := s.PutDigest(rec)
	return id
}

// PutDigest is Put, also returning the content address it attached.
func (s *Store) PutDigest(rec Record) (ID, Digest) {
	d, periphs := s.address(&rec)
	s.cmu.Lock()
	s.attach(d, periphs, &rec)
	s.cmu.Unlock()
	id := ID(s.next.Add(1))
	st := s.stripe(id)
	st.mu.Lock()
	st.ids[id] = d
	st.mu.Unlock()
	s.puts.Add(1)
	s.bumpLive()
	return id, d
}

// Update re-points an existing ID at new content (UpdateState of
// Algorithm 1: the new snapshot overrides the one associated with the
// previous state) and returns the content address it now holds.
// Updating the zero ID is an explicit error: 0 is the engine's "no
// snapshot" sentinel and never names stored content.
func (s *Store) Update(id ID, rec Record) (Digest, error) {
	if id == 0 {
		return Digest{}, fmt.Errorf("snapshot: update of the zero (no-snapshot) id")
	}
	d, periphs := s.address(&rec)
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	old, ok := st.ids[id]
	if !ok {
		return Digest{}, fmt.Errorf("snapshot: update of unknown id %d", id)
	}
	if d == old {
		// Content unchanged: the whole update is a no-op.
		s.cmu.RLock()
		bytes := s.entries[old].bytes
		s.cmu.RUnlock()
		s.dedupHits.Add(1)
		s.bytesShared.Add(bytes)
		return d, nil
	}
	s.cmu.Lock()
	s.attach(d, periphs, &rec)
	s.detach(old)
	s.cmu.Unlock()
	st.ids[id] = d
	s.puts.Add(1)
	return d, nil
}

// UpdateToDigest re-points an existing ID at already-stored content,
// without supplying the state bytes: the caller proved (via a
// mutation generation) that the content at d is what the ID should
// hold. An ID already holding d is left as it is and counts nothing.
// Returns false — caller must fall back to Update with real content —
// when id or d is unknown.
func (s *Store) UpdateToDigest(id ID, d Digest) bool {
	if id == 0 {
		return false
	}
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	old, ok := st.ids[id]
	if !ok {
		return false
	}
	if old == d {
		return true
	}
	s.cmu.Lock()
	ent, ok := s.entries[d]
	if !ok {
		s.cmu.Unlock()
		return false
	}
	bytes := ent.bytes
	ent.refs++
	s.detach(old)
	s.cmu.Unlock()
	s.dedupHits.Add(1)
	s.bytesShared.Add(bytes)
	st.ids[id] = d
	s.puts.Add(1)
	return true
}

// Get retrieves a snapshot. The returned record is the canonical
// stored entry, shared by every ID with the same content: callers
// MUST NOT mutate it. Get(0) is an explicit fast-path miss (0 is the
// "no snapshot" sentinel).
func (s *Store) Get(id ID) (*Record, bool) {
	rec, _, ok := s.Fetch(id, Digest{})
	return rec, ok
}

// Fetch is Get for a caller that may hold content already: it returns
// the content address id points at and, unless that address is have,
// the record. Only a returned record counts as a Get. The zero digest
// names no content, so Fetch(id, Digest{}) always returns the record.
func (s *Store) Fetch(id ID, have Digest) (*Record, Digest, bool) {
	if id == 0 {
		return nil, Digest{}, false
	}
	st := s.stripe(id)
	st.mu.RLock()
	d, ok := st.ids[id]
	st.mu.RUnlock()
	if !ok || d == have {
		return nil, d, ok
	}
	// The entry cannot die between the two locks: this ID still holds
	// a reference, and the ID's owner is the only goroutine allowed to
	// Update/Release it.
	s.cmu.RLock()
	ent := s.entries[d]
	s.cmu.RUnlock()
	s.gets.Add(1)
	s.bytesMaterialized.Add(ent.bytes)
	return ent.rec, d, true
}

// Release drops one ID (terminated state); the underlying record dies
// when its last reference goes. Release(0) is an explicit no-op.
func (s *Store) Release(id ID) {
	if id == 0 {
		return
	}
	st := s.stripe(id)
	st.mu.Lock()
	d, ok := st.ids[id]
	if ok {
		delete(st.ids, id)
	}
	st.mu.Unlock()
	if !ok {
		return
	}
	s.cmu.Lock()
	s.detach(d)
	s.cmu.Unlock()
	s.releases.Add(1)
	s.live.Add(-1)
}

// Adopt returns a new ID referencing already-stored content, or false
// if no record with that digest is live. This is the fork fast path:
// a child state adopts the parent's snapshot for a refcount++.
func (s *Store) Adopt(d Digest) (ID, bool) {
	s.cmu.Lock()
	ent, ok := s.entries[d]
	if !ok {
		s.cmu.Unlock()
		return 0, false
	}
	ent.refs++
	bytes := ent.bytes
	s.cmu.Unlock()
	id := ID(s.next.Add(1))
	st := s.stripe(id)
	st.mu.Lock()
	st.ids[id] = d
	st.mu.Unlock()
	s.puts.Add(1)
	s.dedupHits.Add(1)
	s.bytesShared.Add(bytes)
	s.bumpLive()
	return id, true
}

// DigestOf returns the content address an ID currently points at.
func (s *Store) DigestOf(id ID) (Digest, bool) {
	if id == 0 {
		return Digest{}, false
	}
	st := s.stripe(id)
	st.mu.RLock()
	defer st.mu.RUnlock()
	d, ok := st.ids[id]
	return d, ok
}

// RecordByDigest returns the live record with the given content
// address, if any. The record is shared: callers MUST NOT mutate it.
func (s *Store) RecordByDigest(d Digest) (*Record, bool) {
	s.cmu.RLock()
	defer s.cmu.RUnlock()
	ent, ok := s.entries[d]
	if !ok {
		return nil, false
	}
	return ent.rec, true
}

// Stats returns a copy of the cumulative counters.
func (s *Store) Stats() Stats {
	return Stats{
		Puts:              s.puts.Load(),
		Gets:              s.gets.Load(),
		Releases:          s.releases.Load(),
		PeakLive:          int(s.peakLive.Load()),
		DedupHits:         s.dedupHits.Load(),
		PeriphStored:      s.periphStored.Load(),
		PeriphShared:      s.periphShared.Load(),
		BytesStored:       s.bytesStored.Load(),
		BytesShared:       s.bytesShared.Load(),
		BytesMaterialized: s.bytesMaterialized.Load(),
	}
}

// address content-addresses rec and each of its peripherals, in
// rec.HW's order. A peripheral state the pool already holds is named
// by lookup; only one new to the store is encoded and hashed.
func (s *Store) address(rec *Record) (Digest, []Digest) {
	periphs := make([]Digest, len(rec.HW))
	if s.key != nil {
		s.cmu.RLock()
		for i := range rec.HW {
			if pe := s.lookup(&rec.HW[i].HW); pe != nil {
				periphs[i] = pe.digest
			}
		}
		s.cmu.RUnlock()
	}
	for i := range periphs {
		if periphs[i] == (Digest{}) {
			periphs[i] = HWDigest(&rec.HW[i].HW)
		}
	}
	return recordDigest(rec, periphs), periphs
}

// contentKey is a cheap 64-bit key of a value vector. It is not a
// content address: the index confirms every candidate it finds by
// comparing vectors and layouts.
func contentKey(vals []uint64) uint64 {
	h := uint64(len(vals)) * 0x9E3779B97F4A7C15
	for _, v := range vals {
		h = (h ^ v) * 0xBF58476D1CE4E5B9
		h ^= h >> 31
	}
	return h
}

// lookup returns the pooled state equal to hw, or nil. Equal vectors
// under equal names and depths are equal state bytes, so the entry's
// digest is HWDigest(hw); the layouts are compared by value, since
// every worker's simulator has a layout of its own. Caller holds cmu.
func (s *Store) lookup(hw *sim.HWState) *poolEntry {
	vals := hw.Vals()
	for pe := s.index[s.key(vals)]; pe != nil; pe = pe.next {
		if slices.Equal(pe.hw.Vals(), vals) && pe.hw.Layout().Check(hw.Layout()) == nil {
			if nameAudit && HWDigest(hw) != pe.digest {
				panic(fmt.Sprintf("snapshot: index named a state %x, HWDigest is %x", pe.digest[:8], HWDigest(hw)))
			}
			return pe
		}
	}
	return nil
}

// unindex removes a dead pool entry from the index. Caller holds cmu
// for writing.
func (s *Store) unindex(pe *poolEntry) {
	if s.key == nil {
		return
	}
	k := s.key(pe.hw.Vals())
	if s.index[k] == pe {
		if pe.next == nil {
			delete(s.index, k)
		} else {
			s.index[k] = pe.next
		}
		return
	}
	for p := s.index[k]; p != nil; p = p.next {
		if p.next == pe {
			p.next = pe.next
			return
		}
	}
}

// attach resolves d to a live entry, creating one from rec (with
// per-peripheral interning) if needed, and takes a reference. d and
// periphs are address(rec)'s. Caller holds cmu for writing.
func (s *Store) attach(d Digest, periphs []Digest, rec *Record) {
	if ent, ok := s.entries[d]; ok {
		ent.refs++
		s.dedupHits.Add(1)
		s.bytesShared.Add(ent.bytes)
		return
	}
	hw := make(target.State, len(periphs))
	var total uint64
	for i := range rec.HW {
		pd := periphs[i]
		pe, ok := s.pool[pd]
		if ok {
			pe.refs++
			s.periphShared.Add(1)
			s.bytesShared.Add(hwBytes(pe.hw))
		} else {
			pe = &poolEntry{hw: rec.HW[i].HW.Clone(), digest: pd, refs: 1}
			s.pool[pd] = pe
			if s.key != nil {
				k := s.key(pe.hw.Vals())
				pe.next = s.index[k]
				s.index[k] = pe
			}
			s.periphStored.Add(1)
			s.bytesStored.Add(hwBytes(pe.hw))
		}
		hw[i] = target.PeriphState{Name: rec.HW[i].Name, HW: *pe.hw}
		total += hwBytes(pe.hw)
	}
	s.entries[d] = &entry{
		rec:     &Record{HW: hw, IRQEdges: append([]bool(nil), rec.IRQEdges...)},
		digest:  d,
		periphs: periphs,
		refs:    1,
		bytes:   total,
	}
}

// detach drops one reference from the entry at d. When the last
// reference goes the entry is freed along with its pooled peripheral
// states. Caller holds cmu for writing.
func (s *Store) detach(d Digest) {
	ent, ok := s.entries[d]
	if !ok {
		return
	}
	ent.refs--
	if ent.refs > 0 {
		return
	}
	s.drop(ent)
}
