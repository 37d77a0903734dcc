package farm

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"hardsnap/internal/campaign"
	"hardsnap/internal/core"
)

// persistedJob is the on-disk form of one job: the full spec plus
// its lifecycle state, written atomically on every transition. A
// farm restarted on the same StateDir reconstructs everything from
// these files plus the per-job campaign journals.
type persistedJob struct {
	ID     string           `json:"id"`
	Tenant string           `json:"tenant"`
	Job    campaign.Job     `json:"job"`
	Status JobStatus        `json:"status"`
	Error  string           `json:"error,omitempty"`
	Result *campaign.Result `json:"result,omitempty"`
}

func (f *Farm) statePath(id string) string {
	return filepath.Join(f.cfg.StateDir, "job-"+id+".json")
}

// persistLocked writes the job's state file atomically (temp +
// rename). Submit refuses a job whose first write fails; every later
// transition is best-effort durability, never a scheduling
// dependency: an unwritable StateDir then degrades restart recovery,
// not the running farm, and callers drop the error.
func (f *Farm) persistLocked(js *jobState) error {
	if f.cfg.StateDir == "" {
		return nil
	}
	pj := persistedJob{
		ID: js.id, Tenant: js.tenant, Job: js.job,
		Status: js.status, Error: js.err, Result: js.result,
	}
	data, err := json.MarshalIndent(pj, "", "  ")
	if err != nil {
		return fmt.Errorf("farm: persist job %s: %w", js.id, err)
	}
	path := f.statePath(js.id)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("farm: persist job %s: %w", js.id, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("farm: persist job %s: %w", js.id, err)
	}
	return nil
}

// recover rebuilds the farm from StateDir: terminal jobs are
// reloaded (their consumption re-charged to tenants, so budgets
// survive restarts), and jobs that were queued or running when the
// previous process died are re-enqueued. A running parallel job's
// campaign journal is loaded so its re-run replays completed
// subtrees instead of re-exploring them.
func (f *Farm) recover() error {
	if f.cfg.StateDir == "" {
		return nil
	}
	if err := os.MkdirAll(f.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("farm: state dir: %w", err)
	}
	paths, err := filepath.Glob(filepath.Join(f.cfg.StateDir, "job-*.json"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("farm: recover %s: %w", path, err)
		}
		var pj persistedJob
		if err := json.Unmarshal(data, &pj); err != nil {
			return fmt.Errorf("farm: recover %s: %w", path, err)
		}
		js := &jobState{
			id: pj.ID, tenant: pj.Tenant, job: pj.Job,
			status: pj.Status, err: pj.Error, result: pj.Result,
		}
		ten, ok := f.tenants[js.tenant]
		if !ok {
			// The tenant was declared when the job was accepted;
			// honor its history even if the new config dropped it.
			ten = &tenantState{name: js.tenant}
			f.tenants[js.tenant] = ten
		}
		ten.jobs++
		if js.status == StatusDone && js.result != nil {
			ten.usedVT += js.result.VirtualTime
			if js.result.SolverQueries > 0 {
				ten.usedQ += uint64(js.result.SolverQueries)
			}
		}
		if !js.status.terminal() {
			// Died queued or mid-run: run it again, resuming from the
			// campaign journal when one was flushed.
			js.status = StatusQueued
			if cam, err := core.LoadCampaign(f.journalPath(js.id)); err == nil {
				if cam.Complete {
					// The campaign finished but the process died
					// before recording the result; the journal cannot
					// be appended to, so start the run over.
					_ = os.Remove(f.journalPath(js.id))
				} else {
					js.resume = cam
				}
			}
			f.queue = append(f.queue, js.id)
		}
		f.jobs[js.id] = js
	}
	return nil
}
