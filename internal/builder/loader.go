package builder

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"matproj/internal/datastore"
	"matproj/internal/dft"
	"matproj/internal/document"
)

// Loader implements the §IV-C1 data-loading pass: worker nodes cannot
// connect out to the database server, so raw run logs accumulate on the
// HPC filesystem (written by VASPAssembler's StagingDir mode) and a
// periodic pass on midrange resources parses, reduces, and loads them
// into the tasks collection. Loading is incremental and idempotent:
// each file is keyed by its stem, and already-loaded stems are skipped,
// so a crashed or repeated pass never double-loads.
type Loader struct {
	Store *datastore.Store
	// Dir is the staging directory of <stem>.outcar (+ optional
	// <stem>.meta.json sidecar) files.
	Dir string
}

// LoadResult summarizes one loading pass.
type LoadResult struct {
	Loaded  int
	Skipped int
	// Failed lists files that could not be parsed; they are left in
	// place for manual inspection.
	Failed []string
}

// Run performs one incremental loading pass.
func (l *Loader) Run() (LoadResult, error) {
	var res LoadResult
	if l.Store == nil || l.Dir == "" {
		return res, fmt.Errorf("builder: Loader needs Store and Dir")
	}
	matches, err := filepath.Glob(filepath.Join(l.Dir, "*.outcar"))
	if err != nil {
		return res, err
	}
	sort.Strings(matches)
	tasks := l.Store.C("tasks")
	tasks.EnsureOrderedIndex("loaded_from")
	for _, path := range matches {
		stem := strings.TrimSuffix(filepath.Base(path), ".outcar")
		n, err := tasks.Count(document.D{"loaded_from": stem})
		if err != nil {
			return res, err
		}
		if n > 0 {
			res.Skipped++
			continue
		}
		doc, err := l.parseOne(path, stem)
		if err != nil {
			res.Failed = append(res.Failed, filepath.Base(path))
			continue
		}
		if _, err := tasks.Insert(doc); err != nil {
			return res, err
		}
		res.Loaded++
	}
	return res, nil
}

// parseOne reduces one raw run log (plus sidecar metadata) to a task
// document.
func (l *Loader) parseOne(path, stem string) (document.D, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sum, err := dft.ParseOutcar(raw)
	if err != nil {
		return nil, err
	}
	state := "successful"
	failure := ""
	if sum.Code != dft.OK {
		state = "failed"
		failure = string(sum.Code)
	}
	result := document.D{
		"formula":         sum.Formula,
		"functional":      sum.Functional,
		"converged":       sum.Code == dft.OK,
		"code":            string(sum.Code),
		"scf_steps":       int64(sum.SCFSteps),
		"nelectrons":      sum.NElectrons,
		"elapsed_s":       sum.ElapsedSec,
		"raw_output_size": int64(len(raw)),
	}
	if sum.Code == dft.OK {
		result["final_energy"] = sum.FinalEnergy
		result["energy_per_atom"] = sum.EnergyPA
		result["bandgap"] = sum.Bandgap
		result["max_force"] = sum.MaxForce
	}
	// Sidecar metadata carries the workflow identifiers the raw log
	// cannot (mps_id, structure_id, task_type).
	if meta, err := os.ReadFile(filepath.Join(l.Dir, stem+".meta.json")); err == nil {
		md, err := document.FromJSON(meta)
		if err != nil {
			return nil, fmt.Errorf("builder: sidecar for %s: %w", stem, err)
		}
		for _, k := range []string{"mps_id", "structure_id", "task_type"} {
			if v, ok := md.Get(k); ok {
				result[k] = v
			}
		}
	}
	return document.D{
		"state":       state,
		"failure":     failure,
		"loaded_from": stem,
		"runtime_s":   sum.ElapsedSec,
		"result":      map[string]any(result),
	}, nil
}
