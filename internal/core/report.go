package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hardsnap/internal/snapshot"
	"hardsnap/internal/symexec"
)

// WriteCrashReports materializes one directory per bug under dir:
//
//	bug-<id>/
//	  report.txt    status, PC, steps, detail, console, model
//	  vector-<tag>  raw test-case bytes per make-symbolic tag
//	  hardware.snap serialized hardware snapshot (when retained)
//
// It returns the number of reports written. Replay a vector with
// Analysis.ReplayVector, or decode hardware.snap with snapshot.Decode.
func (a *Analysis) WriteCrashReports(dir string, rep *Report) (int, error) {
	bugs := rep.Bugs()
	if len(bugs) == 0 {
		return 0, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	written := 0
	for _, bug := range bugs {
		sub := filepath.Join(dir, fmt.Sprintf("bug-%d", bug.ID))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return written, err
		}
		if err := a.writeOneReport(sub, bug); err != nil {
			return written, err
		}
		written++
	}
	return written, nil
}

// writeOneReport writes one bug's report. It reads only what a
// subtree result's byte form carries (appendPath, bug snapshots), so
// a report does not depend on where its subtree ran: locally, on a
// dist node or in a resumed journal.
func (a *Analysis) writeOneReport(dir string, bug *symexec.State) error {
	var b strings.Builder
	fmt.Fprintf(&b, "status: %v\n", bug.Status)
	fmt.Fprintf(&b, "pc: %#x\n", bug.PC)
	fmt.Fprintf(&b, "steps: %d\n", bug.Steps)
	if bug.Err != nil {
		fmt.Fprintf(&b, "detail: %v\n", bug.Err)
	}
	if len(bug.Console) > 0 {
		fmt.Fprintf(&b, "console: %q\n", bug.Console)
	}
	if bug.Model != nil {
		b.WriteString("model:\n")
		for _, n := range snapshot.SortedNames(bug.Model) {
			fmt.Fprintf(&b, "  %s = %#x\n", n, bug.Model[n])
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "report.txt"), []byte(b.String()), 0o644); err != nil {
		return err
	}

	if vector, ok := a.Exec.TestVector(bug); ok {
		for tag, bytes := range vector {
			name := filepath.Join(dir, fmt.Sprintf("vector-%d", tag))
			if err := os.WriteFile(name, bytes, 0o644); err != nil {
				return err
			}
		}
	}

	if rec, ok := a.Engine.BugSnapshot(bug.ID); ok {
		data, err := snapshot.Encode(rec)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "hardware.snap"), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
