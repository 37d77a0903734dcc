// Campaign journaling: the glue between the parallel engine and the
// append-only journal (internal/journal) that makes a campaign
// survive process death.
//
// What gets journaled is the *frontier decomposition*, not raw
// symbolic states: the fan-out seeds are a deterministic product of
// the serial seed phase, so a resume re-runs that phase (cheap, its
// length is the fan-out width), proves via fingerprints that it
// reproduced the same campaign, and then replays completed subtree
// results from the journal instead of re-exploring them. Symbolic
// constraint terms never need to be serialized — only the portable,
// report-relevant fields of each finished path.
//
// Record kinds:
//
//	recCampaign  one per journal, first record: config fingerprint,
//	             worker count, seed-phase identity (seeds hash).
//	recFrontier  the pending subtree indexes; superseded records are
//	             dropped by periodic compaction.
//	recSubtree   one completed subtree: its portable paths, virtual
//	             time and traffic deltas.
//	recComplete  the campaign finished; resuming it is an error.
package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"hardsnap/internal/expr"
	"hardsnap/internal/journal"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/solver"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
)

// Journal record kinds (journal.Record.Kind).
const (
	recCampaign byte = 1
	recFrontier byte = 2
	recSubtree  byte = 3
	recComplete byte = 4
)

// compactEvery is how many subtree completions pass between journal
// compactions (each completion appends a fresh frontier record; the
// compaction drops the superseded ones). Compaction rewrites and
// fsyncs the whole file, so it runs rarely: frontier records are tens
// of bytes and the rewrite only pays off once many are superseded.
const compactEvery = 64

// syncEvery is the group-commit interval: how many subtree
// completions are appended between journal fsyncs. A crash between
// syncs re-explores at most syncEvery-1 journal-lost subtrees on
// resume; deterministic re-exploration makes the result identical,
// so the interval trades only resume latency for per-completion
// fsync cost (measured in E14).
const syncEvery = 4

// journalSyncEvery resolves Config.JournalSyncEvery against the
// default group-commit interval: 0 keeps syncEvery, negative values
// fsync after every completion.
func (c *Config) journalSyncEvery() int {
	switch {
	case c.JournalSyncEvery > 0:
		return c.JournalSyncEvery
	case c.JournalSyncEvery < 0:
		return 1
	}
	return syncEvery
}

// journalCompactEvery resolves Config.JournalCompactEvery the same
// way against the default compaction threshold.
func (c *Config) journalCompactEvery() int {
	switch {
	case c.JournalCompactEvery > 0:
		return c.JournalCompactEvery
	case c.JournalCompactEvery < 0:
		return 1
	}
	return compactEvery
}

// campaignHeader identifies a campaign so a resume can prove it is
// continuing the same run it would otherwise restart.
type campaignHeader struct {
	// Fingerprint hashes the run configuration (mode, searcher type,
	// budgets, worker count).
	Fingerprint string
	Workers     int
	// Seeds / SeedsHash / SeedMaxID / SeedFinished / SeedInstructions
	// pin the outcome of the deterministic seed phase: a resume re-runs
	// it and must land on exactly this frontier.
	Seeds            int
	SeedsHash        string
	SeedMaxID        uint64
	SeedFinished     int
	SeedInstructions uint64
}

// frontierRec lists the subtree indexes still pending.
type frontierRec struct {
	Pending []int
}

// portablePath is the journal-serializable projection of a finished
// symexec.State: everything the report, the bug listing and the
// identity fingerprint use. Constraint terms and memory overlays are
// deliberately absent — they are not needed to *report* a finished
// path, only to extend a running one.
type portablePath struct {
	ID        uint64
	Parent    uint64
	PC        uint32
	Status    symexec.Status
	Steps     uint64
	Console   []byte
	Model     expr.Assignment
	SymInputs []symexec.SymInput
	ErrMsg    string
}

func toPortable(st *symexec.State) portablePath {
	p := portablePath{
		ID:        st.ID,
		Parent:    st.Parent,
		PC:        st.PC,
		Status:    st.Status,
		Steps:     st.Steps,
		Console:   st.Console,
		Model:     st.Model,
		SymInputs: st.SymInputs,
	}
	if st.Err != nil {
		p.ErrMsg = st.Err.Error()
	}
	return p
}

func (p portablePath) state() *symexec.State {
	st := &symexec.State{
		ID:        p.ID,
		Parent:    p.Parent,
		PC:        p.PC,
		Status:    p.Status,
		Steps:     p.Steps,
		Console:   p.Console,
		Model:     p.Model,
		SymInputs: p.SymInputs,
	}
	if p.ErrMsg != "" {
		st.Err = errors.New(p.ErrMsg)
	}
	return st
}

// subtreeRec is one completed subtree's full contribution to the
// merge, in journal-portable form.
type subtreeRec struct {
	Idx    int
	VT     time.Duration
	Paths  []portablePath
	Stats  Stats
	Exec   symexec.Stats
	Solver solver.Stats
	Tgt    target.Stats
	Man    SnapManagerStats
	// BugSnaps carries snapshot.Encode'd hardware snapshots of buggy
	// states (Config.KeepBugSnapshots), keyed by state ID.
	BugSnaps map[uint64][]byte
}

func newSubtreeRec(idx int, res *subtreeResult) (subtreeRec, error) {
	rec := subtreeRec{
		Idx:    idx,
		VT:     res.vt,
		Stats:  res.rep.Stats,
		Exec:   res.rep.Exec,
		Solver: res.rep.Solver,
		Tgt:    res.tgt,
		Man:    res.man,
	}
	rec.Paths = make([]portablePath, len(res.rep.Finished))
	for i, st := range res.rep.Finished {
		rec.Paths[i] = toPortable(st)
	}
	if len(res.bugSnaps) > 0 {
		rec.BugSnaps = make(map[uint64][]byte, len(res.bugSnaps))
		for id, snap := range res.bugSnaps {
			data, err := snapshot.Encode(snap)
			if err != nil {
				return subtreeRec{}, fmt.Errorf("core: journal bug snapshot %d: %w", id, err)
			}
			rec.BugSnaps[id] = data
		}
	}
	return rec, nil
}

func (r subtreeRec) result() (*subtreeResult, error) {
	states := make([]*symexec.State, len(r.Paths))
	for i, p := range r.Paths {
		states[i] = p.state()
	}
	res := &subtreeResult{
		rep: &Report{
			Finished:    states,
			Stats:       r.Stats,
			VirtualTime: r.VT,
			Exec:        r.Exec,
			Solver:      r.Solver,
		},
		vt:  r.VT,
		tgt: r.Tgt,
		man: r.Man,
	}
	if len(r.BugSnaps) > 0 {
		res.bugSnaps = make(map[uint64]*snapshot.Record, len(r.BugSnaps))
		for id, data := range r.BugSnaps {
			snap, err := snapshot.Decode(data)
			if err != nil {
				return nil, fmt.Errorf("core: journaled bug snapshot %d: %w", id, err)
			}
			res.bugSnaps[id] = snap
		}
	}
	return res, nil
}

// campaignLog is the one writer of campaign journals: the supervisor
// appends every completed subtree through it, whichever kind of
// executor ran the subtree. A log with a nil writer (journaling off)
// accepts every call and writes nothing, so callers carry no
// journaling branches. Not safe for concurrent use; the supervisor
// calls it under its own lock.
type campaignLog struct {
	jw           *journal.Writer
	syncEvery    int
	compactEvery int
	sinceSync    int
	sinceCompact int
	// wall is the host time spent in appendSubtree and finish
	// (RecoveryStats.JournalWall).
	wall time.Duration
}

// openCampaignLog opens the run's journal: Config.Resume continues the
// loaded campaign's file (after proving it is this campaign), else
// Config.JournalPath starts a fresh one with the header and the full
// pending frontier, else journaling is off.
func openCampaignLog(cfg *Config, hdr campaignHeader) (*campaignLog, error) {
	l := &campaignLog{syncEvery: cfg.journalSyncEvery(), compactEvery: cfg.journalCompactEvery()}
	switch {
	case cfg.Resume != nil:
		if err := cfg.Resume.validate(hdr); err != nil {
			return nil, err
		}
		// Keep appending to the same journal: the campaign's history
		// stays in one file across any number of resumes.
		jw, _, err := journal.AppendTo(cfg.Resume.Path)
		if err != nil {
			return nil, err
		}
		l.jw = jw
	case cfg.JournalPath != "":
		jw, err := journal.Create(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		l.jw = jw
		payload, err := gobEncode(hdr)
		if err == nil {
			err = jw.Append(recCampaign, payload)
		}
		if err == nil {
			_, err = l.appendFrontier(make([]bool, hdr.Seeds))
		}
		if err == nil {
			err = jw.Sync()
		}
		if err != nil {
			jw.Close()
			return nil, err
		}
	}
	return l, nil
}

// appendFrontier journals the subtree indexes not yet completed and
// returns the record it wrote.
func (l *campaignLog) appendFrontier(completed []bool) (journal.Record, error) {
	var rec frontierRec
	for idx, done := range completed {
		if !done {
			rec.Pending = append(rec.Pending, idx)
		}
	}
	payload, err := gobEncode(rec)
	if err != nil {
		return journal.Record{}, err
	}
	return journal.Record{Kind: recFrontier, Payload: payload}, l.jw.Append(recFrontier, payload)
}

// appendSubtree journals one completed subtree plus a fresh frontier
// record (completed already counts it). Completions are
// group-committed: the journal is fsynced every syncEvery completions
// (and with the last subtree, at the campaign's end and on
// interruption), so a hard crash re-explores at most the last few
// subtrees — re-exploration is deterministic, so the resumed result
// is identical either way. Every compactEvery completions the journal
// is compacted: superseded frontier records are dropped in an atomic
// rewrite.
func (l *campaignLog) appendSubtree(idx int, res *subtreeResult, completed []bool) error {
	if l.jw == nil {
		return nil
	}
	start := time.Now()
	defer func() { l.wall += time.Since(start) }()
	rec, err := newSubtreeRec(idx, res)
	if err != nil {
		return err
	}
	payload, err := gobEncode(rec)
	if err != nil {
		return err
	}
	if err := l.jw.Append(recSubtree, payload); err != nil {
		return err
	}
	frontier, err := l.appendFrontier(completed)
	if err != nil {
		return err
	}
	if l.sinceSync++; l.sinceSync >= l.syncEvery || !slices.Contains(completed, false) {
		l.sinceSync = 0
		if err := l.jw.Sync(); err != nil {
			return err
		}
	}
	if l.sinceCompact++; l.sinceCompact >= l.compactEvery {
		l.sinceCompact = 0
		return l.jw.Compact(func(rs []journal.Record) []journal.Record {
			kept := rs[:0]
			for _, r := range rs {
				if r.Kind != recFrontier {
					kept = append(kept, r)
				}
			}
			return append(kept, frontier)
		})
	}
	return nil
}

// finish marks the campaign complete (resuming it becomes an error)
// and syncs.
func (l *campaignLog) finish() error {
	if l.jw == nil {
		return nil
	}
	start := time.Now()
	defer func() { l.wall += time.Since(start) }()
	if err := l.jw.Append(recComplete, nil); err != nil {
		return err
	}
	return l.jw.Sync()
}

// sync flushes the journal before an interrupted run returns, so the
// campaign is resumable.
func (l *campaignLog) sync() {
	if l.jw != nil {
		l.jw.Sync()
	}
}

func (l *campaignLog) close() {
	if l.jw != nil {
		l.jw.Close()
	}
}

// stats reports journal output (zero with journaling off).
func (l *campaignLog) stats() journal.Stats {
	if l.jw == nil {
		return journal.Stats{}
	}
	return l.jw.Stats()
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// runFingerprint hashes the configuration knobs that shape a
// campaign's outcome. The searcher contributes its type (searchers
// are stateless strategies); the program itself is pinned by the
// seed-phase hash in the campaign header. maxs= and cpi= print what
// used to be options, so journals written then still validate.
func (c *Config) runFingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "mode=%d searcher=%T maxi=%d maxs=%d cpi=%d workers=%d bugsnaps=%v maxvt=%d maxq=%d",
		c.Mode, c.Searcher, c.MaxInstructions, MaxStates,
		uint64(CyclesPerInstruction), c.Workers, c.KeepBugSnapshots,
		c.MaxVirtualTime, c.MaxSolverQueries)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// seedsHash pins the fan-out frontier: the identity-relevant fields
// of every seed state, in seed order.
func seedsHash(seeds []*symexec.State) string {
	h := sha256.New()
	for _, st := range seeds {
		fmt.Fprintf(h, "%d %d %#x %d %d %q\n", st.ID, st.Parent, st.PC, st.Status, st.Steps, st.Console)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Fingerprint canonically hashes the observable outcome of a run:
// every finished path's report-relevant fields (sorted, so completion
// order is irrelevant) plus the virtual time. Two runs with equal
// fingerprints reported byte-identical bugs, paths and timing — the
// identity gate the chaos harness and resume tests assert.
func Fingerprint(rep *Report) string {
	lines := make([]string, 0, len(rep.Finished))
	for _, st := range rep.Finished {
		lines = append(lines, pathLine(st))
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		io.WriteString(h, l)
		h.Write([]byte{'\n'})
	}
	fmt.Fprintf(h, "paths=%d vt=%d", len(rep.Finished), rep.VirtualTime)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func pathLine(st *symexec.State) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %d %#x %d %d %q", st.ID, st.Parent, st.PC, st.Status, st.Steps, st.Console)
	keys := make([]string, 0, len(st.Model))
	for k := range st.Model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, st.Model[k])
	}
	for _, in := range st.SymInputs {
		fmt.Fprintf(&b, " sym(%d,%#x,%d)", in.Tag, in.Addr, in.Len)
	}
	return b.String()
}

// Campaign is a loaded campaign journal, ready to be passed as
// Config.Resume. Loading is tolerant of a torn tail (the process was
// killed mid-append): the intact prefix is used and Truncated is set.
type Campaign struct {
	// Path is the journal file; a resumed run keeps appending to it.
	Path   string
	Header campaignHeader
	// Results holds the journaled completed subtrees by seed index.
	Results map[int]*subtreeResult
	// Complete reports the campaign already finished.
	Complete bool
	// Truncated reports the journal had a torn or corrupted tail that
	// was discarded (resume continues from the last good record).
	Truncated bool
}

// LoadCampaign reads a campaign journal written by a run with
// Config.JournalPath set.
func LoadCampaign(path string) (*Campaign, error) {
	scan, err := journal.Scan(path)
	if err != nil {
		return nil, err
	}
	cam := &Campaign{
		Path:      path,
		Results:   make(map[int]*subtreeResult),
		Truncated: scan.Truncated,
	}
	if len(scan.Records) == 0 {
		return nil, fmt.Errorf("core: %s: journal holds no campaign header (killed before fan-out; restart the run)", path)
	}
	if scan.Records[0].Kind != recCampaign {
		return nil, fmt.Errorf("core: %s: first journal record is kind %d, want campaign header", path, scan.Records[0].Kind)
	}
	if err := gobDecode(scan.Records[0].Payload, &cam.Header); err != nil {
		return nil, fmt.Errorf("core: %s: campaign header: %w", path, err)
	}
	for _, r := range scan.Records[1:] {
		switch r.Kind {
		case recSubtree:
			var rec subtreeRec
			if err := gobDecode(r.Payload, &rec); err != nil {
				return nil, fmt.Errorf("core: %s: subtree record: %w", path, err)
			}
			res, err := rec.result()
			if err != nil {
				return nil, err
			}
			cam.Results[rec.Idx] = res
		case recFrontier:
			// Informational; pending work is derived as seeds minus
			// completed subtrees.
		case recComplete:
			cam.Complete = true
		case recCampaign:
			return nil, fmt.Errorf("core: %s: duplicate campaign header", path)
		}
	}
	return cam, nil
}

// validate proves the loaded campaign matches the run being resumed:
// same configuration fingerprint and the same deterministic seed
// phase. A mismatch means the journal belongs to a different program,
// configuration or seed — resuming it would merge unrelated results.
func (c *Campaign) validate(h campaignHeader) error {
	if c.Complete {
		return fmt.Errorf("core: %s: campaign is already complete", c.Path)
	}
	if c.Header.Fingerprint != h.Fingerprint {
		return fmt.Errorf("core: %s: resume rejected: configuration fingerprint mismatch", c.Path)
	}
	if c.Header.Seeds != h.Seeds || c.Header.SeedsHash != h.SeedsHash ||
		c.Header.SeedMaxID != h.SeedMaxID ||
		c.Header.SeedFinished != h.SeedFinished ||
		c.Header.SeedInstructions != h.SeedInstructions {
		return fmt.Errorf("core: %s: resume rejected: seed phase diverged from the journaled campaign", c.Path)
	}
	return nil
}
