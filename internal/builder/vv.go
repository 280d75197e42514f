package builder

import (
	"fmt"
	"sort"

	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/fireworks"
	"matproj/internal/mapreduce"
)

// The paper's §IV-C2: "a MapReduce-style framework ... to run
// validation and verification (V&V) checks over the data". Each Check
// scans one collection document-by-document; the Runner executes checks
// on the parallel MapReduce engine and files a report per check into the
// vv_reports collection, so the V&V history is itself queryable data in
// the same store.

// ReportsCollection receives one report document per executed check.
const ReportsCollection = "vv_reports"

// Check is one V&V rule over a collection.
type Check struct {
	Name       string
	Collection string
	// Filter restricts which documents the check scans (nil = all).
	Filter document.D
	// Validate returns human-readable violation messages for one
	// document (empty = clean). It must be safe for concurrent calls.
	Validate func(doc document.D) []string
}

// Violation is one failed rule on one document.
type Violation struct {
	Check      string
	Collection string
	Key        string // offending document id
	Message    string
}

// Runner executes checks and files reports.
type Runner struct {
	Store *datastore.Store
	// Workers bounds the MapReduce engine's workers (0 = GOMAXPROCS).
	Workers int
}

// RunChecks executes every check and returns all violations, sorted by
// (check, key). A report document per check is inserted into vv_reports
// regardless of outcome.
func (r *Runner) RunChecks(checks []Check) ([]Violation, error) {
	if r.Store == nil {
		return nil, fmt.Errorf("builder: Runner needs a store")
	}
	reports := r.Store.C(ReportsCollection)
	var out []Violation
	for _, ck := range checks {
		if ck.Validate == nil {
			return nil, fmt.Errorf("builder: check %q has no Validate func", ck.Name)
		}
		docs, err := r.Store.C(ck.Collection).FindAll(ck.Filter, nil)
		if err != nil {
			return nil, err
		}
		groups := mapreduce.Run(docs, func(d document.D, emit func(string, any)) {
			id, _ := d["_id"].(string)
			for _, msg := range ck.Validate(d) {
				emit(id, msg)
			}
		}, flattenMessages, r.Workers)

		nViol := 0
		for _, g := range groups {
			msgs, ok := g.Value.([]any)
			if !ok {
				msgs = []any{g.Value} // a single message is never reduced
			}
			for _, msg := range msgs {
				out = append(out, Violation{
					Check:      ck.Name,
					Collection: ck.Collection,
					Key:        g.Key,
					Message:    msg.(string),
				})
				nViol++
			}
		}
		if _, err := reports.Insert(document.D{
			"check":      ck.Name,
			"collection": ck.Collection,
			"scanned":    int64(len(docs)),
			"violations": int64(nViol),
		}); err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Check != out[j].Check {
			return out[i].Check < out[j].Check
		}
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}

// flattenMessages is the V&V reducer. A group's values are messages or,
// once combined, lists of them; it flattens them into one list.
func flattenMessages(_ string, vs []any) any {
	var out []any
	for _, v := range vs {
		if list, ok := v.([]any); ok {
			out = append(out, list...)
		} else {
			out = append(out, v)
		}
	}
	return out
}

// StandardChecks returns the stock V&V suite over a deployment's
// collections: internal consistency of tasks, materials, workflow
// state, and source records. A freshly built deployment passes clean.
func StandardChecks(store *datastore.Store) []Check {
	fwStates := map[string]bool{
		string(fireworks.StateWaiting):   true,
		string(fireworks.StateReady):     true,
		string(fireworks.StateRunning):   true,
		string(fireworks.StateCompleted): true,
		string(fireworks.StateFizzled):   true,
		string(fireworks.StateDefused):   true,
	}
	return []Check{
		{
			Name:       "tasks-successful-complete",
			Collection: "tasks",
			Filter:     document.D{"state": "successful"},
			Validate: func(d document.D) []string {
				var v []string
				if _, ok := d.GetFloat("result.final_energy"); !ok {
					v = append(v, "successful task lacks result.final_energy")
				}
				if _, ok := d.GetFloat("result.energy_per_atom"); !ok {
					v = append(v, "successful task lacks result.energy_per_atom")
				}
				if conv, ok := d.Get("result.converged"); ok {
					if b, isBool := conv.(bool); isBool && !b {
						v = append(v, "successful task reports converged=false")
					}
				}
				return v
			},
		},
		{
			Name:       "tasks-state-enum",
			Collection: "tasks",
			Validate: func(d document.D) []string {
				if s := d.GetString("state"); s != "successful" && s != "failed" {
					return []string{fmt.Sprintf("unknown task state %q", s)}
				}
				return nil
			},
		},
		{
			Name:       "engines-state-machine",
			Collection: fireworks.EnginesCollection,
			Validate: func(d document.D) []string {
				var v []string
				state := d.GetString("state")
				if !fwStates[state] {
					v = append(v, fmt.Sprintf("unknown firework state %q", state))
				}
				if state == string(fireworks.StateCompleted) && !d.Has("output") {
					v = append(v, "COMPLETED firework has no output")
				}
				if state == string(fireworks.StateRunning) && d.GetString("worker") == "" {
					v = append(v, "RUNNING firework has no worker")
				}
				return v
			},
		},
		{
			Name:       "materials-fields",
			Collection: MaterialsCollection,
			Validate: func(d document.D) []string {
				var v []string
				if d.GetString("pretty_formula") == "" {
					v = append(v, "material lacks pretty_formula")
				}
				if _, ok := d.GetFloat("e_per_atom"); !ok {
					v = append(v, "material lacks e_per_atom")
				}
				if bg, ok := d.GetFloat("band_gap"); ok && bg < 0 {
					v = append(v, fmt.Sprintf("negative band gap %v", bg))
				}
				if eah, ok := d.GetFloat("e_above_hull"); ok && eah < -1e-6 {
					v = append(v, fmt.Sprintf("negative energy above hull %v", eah))
				}
				return v
			},
		},
		{
			Name:       "mps-source-records",
			Collection: "mps",
			Validate: func(d document.D) []string {
				var v []string
				if d.GetDoc("structure") == nil {
					v = append(v, "MPS record lacks structure")
				}
				if d.GetString("structure_id") == "" {
					v = append(v, "MPS record lacks structure_id")
				}
				return v
			},
		},
	}
}
