// Package farm runs exploration campaigns as a service: a
// multi-tenant scheduler with per-tenant virtual-time and
// solver-query budgets, a pre-warmed pool of execution targets that
// keeps rig elaboration off the job admission path, per-job
// crash-safe journals that survive server restarts, and a
// line-delimited JSON TCP protocol (server.go / client.go).
package farm

import (
	"fmt"
	"sync"

	"hardsnap/internal/campaign"
	"hardsnap/internal/core"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/target"
)

// poolStats counts pool traffic: admissions served warm, cold
// builds, and leases that came back recycled into the idle set.
type poolStats struct {
	warmHits   uint64
	coldBuilds uint64
	recycled   uint64
}

// pooledTarget is one idle warm rig plus the content address of its
// pristine boot image.
type pooledTarget struct {
	tgt    *target.Target
	boot   snapshot.Digest
	bootID snapshot.ID
}

// Pool keeps pre-built execution targets ready, keyed by the job's
// rig key (peripheral set + target kind + snapshot method).
// Elaborating peripheral RTL is the expensive part of starting a job;
// the pool pays it in the background so admission only pays a
// restore-to-power-on wipe. Pristine boot images are held in a
// content-addressed snapshot store: a recycled rig must digest-match
// its boot image or it is discarded, so a job can never observe a
// predecessor's hardware state.
type Pool struct {
	size  int
	store *snapshot.Store

	mu      sync.Mutex
	idle    map[string][]*pooledTarget
	filling map[string]int // in-flight background builds per key
	out     map[string]int // leased targets per key (they come back recycled)
	seq     int
	closed  bool
	stats   poolStats

	wg sync.WaitGroup
}

// NewPool creates a pool that keeps up to size warm targets per rig
// key (size <= 0 disables pre-warming: every acquire builds cold).
func NewPool(size int) *Pool {
	return &Pool{
		size:    size,
		store:   snapshot.NewStore(),
		idle:    make(map[string][]*pooledTarget),
		filling: make(map[string]int),
		out:     make(map[string]int),
	}
}

// Lease is one acquired target. Release returns it to the pool
// (recycled and digest-verified) or discards it.
type Lease struct {
	// Target is nil for jobs that need no hardware (no peripherals).
	Target *target.Target
	// Warm reports whether admission was served from the warm pool.
	Warm bool

	pool *Pool
	key  string
	pt   *pooledTarget
}

// buildRig elaborates a fresh target for the job's rig key. Only the
// vehicle is pooled: the job's own setup wires it (core.NewRig with
// the target injected) once it is leased.
func (p *Pool) buildRig(job campaign.Job, name string) (*pooledTarget, error) {
	rig, err := core.NewRig(name, &core.SetupConfig{
		Peripherals: job.Peripherals,
		FPGA:        job.FPGA,
		Readback:    job.Readback,
	}, p.store)
	if err != nil {
		return nil, err
	}
	tgt := rig.Target.(*target.Target)
	rec := snapshot.Record{HW: tgt.PowerOnState()}
	boot := snapshot.DigestRecord(&rec)
	id := p.store.Put(rec)
	return &pooledTarget{tgt: tgt, boot: boot, bootID: id}, nil
}

// Acquire returns a lease for the job's rig: a warm pooled target
// when one is idle, a cold build otherwise. Jobs without peripherals
// get a nil-target lease (the engine runs software-only). A warm hit
// triggers a background refill so the pool stays warm.
func (p *Pool) Acquire(job campaign.Job) (*Lease, error) {
	if len(job.Peripherals) == 0 {
		return &Lease{pool: p}, nil
	}
	key := job.RigKey()

	p.mu.Lock()
	if q := p.idle[key]; len(q) > 0 {
		pt := q[len(q)-1]
		p.idle[key] = q[:len(q)-1]
		p.out[key]++
		p.stats.warmHits++
		p.mu.Unlock()
		p.refill(key, job)
		return &Lease{Target: pt.tgt, Warm: true, pool: p, key: key, pt: pt}, nil
	}
	p.seq++
	name := fmt.Sprintf("rig-%d", p.seq)
	p.mu.Unlock()

	pt, err := p.buildRig(job, name)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.out[key]++
	p.stats.coldBuilds++
	p.mu.Unlock()
	p.refill(key, job)
	return &Lease{Target: pt.tgt, pool: p, key: key, pt: pt}, nil
}

// refill tops the key's capacity (idle + building + leased) up to
// size in the background. Leased targets count: they return recycled,
// so building a spare for them would only be thrown away.
func (p *Pool) refill(key string, job campaign.Job) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed && len(p.idle[key])+p.filling[key]+p.out[key] < p.size {
		p.filling[key]++
		p.seq++
		name := fmt.Sprintf("rig-%d", p.seq)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			pt, err := p.buildRig(job, name)
			p.mu.Lock()
			defer p.mu.Unlock()
			p.filling[key]--
			if err != nil || p.closed || len(p.idle[key]) >= p.size {
				if pt != nil {
					p.store.Release(pt.bootID)
				}
				return
			}
			p.idle[key] = append(p.idle[key], pt)
		}()
	}
}

// Release recycles the leased target and returns it to the pool. The
// recycled hardware must digest-match the rig's pristine boot image;
// anything else (and any recycle error, e.g. a dead target) discards
// the rig — the pool never hands out a tainted target.
func (l *Lease) Release() {
	if l == nil || l.Target == nil {
		return
	}
	p := l.pool
	if err := l.Target.Recycle(); err != nil {
		p.discard(l)
		return
	}
	rec := snapshot.Record{HW: l.Target.LiveState()}
	if snapshot.DigestRecord(&rec) != l.pt.boot {
		p.discard(l)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out[l.key]--
	if p.closed || len(p.idle[l.key]) >= p.size {
		p.store.Release(l.pt.bootID)
		return
	}
	p.stats.recycled++
	p.idle[l.key] = append(p.idle[l.key], l.pt)
}

func (p *Pool) discard(l *Lease) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out[l.key]--
	p.store.Release(l.pt.bootID)
}

// Close stops refilling and waits for in-flight background builds.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
}
