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
//	recCampaign  one per journal, first record: the campaign's
//	             FrontierID (run fingerprint, worker count, seed-phase
//	             outcome, seed hardware digests).
//	recSubtree   one completed subtree: a SubtreeResult in its gob
//	             form. Pending work is the header's seed count minus
//	             these.
//	recComplete  the campaign finished; resuming it is an error.
package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"hardsnap/internal/expr"
	"hardsnap/internal/journal"
	"hardsnap/internal/symexec"
)

// Journal record kinds (journal.Record.Kind). Kinds 1 to 3 belong to
// journals written before the header became a FrontierID and are never
// reused: LoadCampaign tells such a journal by its first record's kind.
const (
	recComplete byte = 4
	recCampaign byte = 5
	recSubtree  byte = 6
)

// ErrCampaignVersion reports a campaign journal whose records are not
// in the format this build writes. It cannot be resumed; the run has to
// start over.
var ErrCampaignVersion = errors.New("campaign journal was written in another format version and cannot be resumed; start the run over")

// syncEvery is the group-commit interval: how many subtree
// completions are appended between journal fsyncs. A crash between
// syncs re-explores at most syncEvery-1 journal-lost subtrees on
// resume; deterministic re-exploration makes the result identical,
// so the interval trades only resume latency for per-completion
// fsync cost.
const syncEvery = 4

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
	Model     []modelVar
	SymInputs []symexec.SymInput
	ErrMsg    string
}

// modelVar is one binding of a path's model. The portable form lists
// them in name order instead of carrying the map: gob writes a map in
// iteration order and, decoding, sizes it from a length field it never
// checks against its input, whereas a slice encodes the same value to
// the same bytes and cannot outgrow the bytes behind it.
type modelVar struct {
	Name  string
	Value uint64
}

func sortedModel(m expr.Assignment) []modelVar {
	vars := make([]modelVar, 0, len(m))
	for name, v := range m {
		vars = append(vars, modelVar{name, v})
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Name < vars[j].Name })
	return vars
}

func toPortable(st *symexec.State) portablePath {
	p := portablePath{
		ID:        st.ID,
		Parent:    st.Parent,
		PC:        st.PC,
		Status:    st.Status,
		Steps:     st.Steps,
		Console:   st.Console,
		Model:     sortedModel(st.Model),
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
		SymInputs: p.SymInputs,
	}
	if len(p.Model) > 0 {
		st.Model = make(expr.Assignment, len(p.Model))
		for _, v := range p.Model {
			st.Model[v.Name] = v.Value
		}
	}
	if p.ErrMsg != "" {
		st.Err = errors.New(p.ErrMsg)
	}
	return st
}

// campaignLog is the one writer of campaign journals: the supervisor
// appends every completed subtree through it, whichever kind of
// executor ran the subtree. A log with a nil writer (journaling off)
// accepts every call and writes nothing, so callers carry no
// journaling branches. Not safe for concurrent use; the supervisor
// calls it under its own lock.
type campaignLog struct {
	jw        *journal.Writer
	sinceSync int
	// wall is the host time spent in appendSubtree and finish
	// (RecoveryStats.JournalWall).
	wall time.Duration
}

// openCampaignLog opens the run's journal: Config.Resume continues the
// loaded campaign's file (after proving it is this campaign), else
// Config.JournalPath starts a fresh one with the header, else
// journaling is off.
func openCampaignLog(cfg *Config, id FrontierID) (*campaignLog, error) {
	l := &campaignLog{}
	switch {
	case cfg.Resume != nil:
		if err := cfg.Resume.validate(id); err != nil {
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
		payload, err := gobEncode(id)
		if err == nil {
			err = jw.Append(recCampaign, payload)
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

// appendSubtree journals one completed subtree; last says it was the
// campaign's final one. Completions are group-committed: the journal
// is fsynced every syncEvery completions (and with the last subtree,
// at the campaign's end and on interruption), so a hard crash
// re-explores at most the last few subtrees — re-exploration is
// deterministic, so the resumed result is identical either way.
func (l *campaignLog) appendSubtree(res *SubtreeResult, last bool) error {
	if l.jw == nil {
		return nil
	}
	start := time.Now()
	defer func() { l.wall += time.Since(start) }()
	payload, err := res.Encode()
	if err != nil {
		return err
	}
	if err := l.jw.Append(recSubtree, payload); err != nil {
		return err
	}
	if l.sinceSync++; l.sinceSync >= syncEvery || last {
		l.sinceSync = 0
		return l.jw.Sync()
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
// seed-phase hash in the campaign header. maxs= and cpi= are build
// constants that shape the outcome as the options do: a journal from a
// build with other values must not resume.
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
	for _, v := range sortedModel(st.Model) {
		fmt.Fprintf(&b, " %s=%d", v.Name, v.Value)
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
	Path string
	// Header identifies the campaign: a resume re-runs the seed phase
	// and must land on exactly this frontier.
	Header FrontierID
	// Results holds the journaled completed subtrees by seed index.
	Results map[int]*SubtreeResult
	// Complete reports the campaign already finished.
	Complete bool
	// Truncated reports the journal had a torn or corrupted tail that
	// was discarded (resume continues from the last good record).
	Truncated bool
}

// LoadCampaign reads a campaign journal written by a run with
// Config.JournalPath set. A journal in another format version fails
// with ErrCampaignVersion.
func LoadCampaign(path string) (*Campaign, error) {
	scan, err := journal.Scan(path)
	if err != nil {
		return nil, err
	}
	cam := &Campaign{
		Path:      path,
		Results:   make(map[int]*SubtreeResult),
		Truncated: scan.Truncated,
	}
	if len(scan.Records) == 0 {
		return nil, fmt.Errorf("core: %s: journal holds no campaign header (killed before fan-out; restart the run)", path)
	}
	if scan.Records[0].Kind != recCampaign {
		return nil, fmt.Errorf("core: %s: %w (first record is kind %d)", path, ErrCampaignVersion, scan.Records[0].Kind)
	}
	if err := gobDecode(scan.Records[0].Payload, &cam.Header); err != nil {
		return nil, fmt.Errorf("core: %s: campaign header: %w", path, err)
	}
	for _, r := range scan.Records[1:] {
		switch r.Kind {
		case recSubtree:
			res, err := DecodeSubtreeResult(r.Payload)
			if err != nil {
				return nil, fmt.Errorf("core: %s: %w", path, err)
			}
			cam.Results[res.Index] = res
		case recComplete:
			cam.Complete = true
		case recCampaign:
			return nil, fmt.Errorf("core: %s: duplicate campaign header", path)
		}
	}
	return cam, nil
}

// validate proves the loaded campaign is the run being resumed: same
// configuration fingerprint, same deterministic seed phase, same seed
// hardware. A mismatch means the journal belongs to a different
// program, configuration, seed or platform — resuming it would merge
// unrelated results.
func (c *Campaign) validate(id FrontierID) error {
	if c.Complete {
		return fmt.Errorf("core: %s: campaign is already complete", c.Path)
	}
	if !c.Header.Equal(id) {
		return fmt.Errorf("core: %s: resume rejected: this run's configuration, seed phase or seed hardware is not the journaled campaign's", c.Path)
	}
	return nil
}
