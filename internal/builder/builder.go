// Package builder implements the post-processing tier of the pipeline
// (§III-B3, §IV-C): loading raw run logs from HPC staging directories
// into the tasks collection, reducing tasks into the materials
// collection ("a 'best' materials summary derived from the tasks"), the
// thermodynamic stability annotation, and the MapReduce-shaped
// validation & verification framework (§IV-C2). Everything runs against
// the same datastore the workflow engine and web tier use — the paper's
// one-store-four-roles architecture.
package builder

import (
	"fmt"

	"matproj/internal/crystal"
	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/mapreduce"
)

// MaterialsCollection is where built materials land.
const MaterialsCollection = "materials"

// MaterialsBuilder reduces the tasks collection into the materials
// collection: successful tasks are grouped by canonical crystal identity
// (structure_id) and the lowest-energy task of each group becomes the
// material of record. The material document aggregates the initial
// (as-submitted) and final (relaxed) structures plus the summary
// properties the dissemination tier serves.
type MaterialsBuilder struct {
	Store *datastore.Store
	// Workers bounds the MapReduce engine's workers (0 = GOMAXPROCS).
	Workers int
}

// bestTask is the per-group reduction value: the id and energy of the
// lowest-energy successful task seen so far.
func taskMapper(t document.D, emit func(string, any)) {
	if t.GetString("state") != "successful" {
		return
	}
	sid := t.GetString("result.structure_id")
	if sid == "" {
		return
	}
	epa, ok := t.GetFloat("result.energy_per_atom")
	if !ok {
		return
	}
	id, _ := t["_id"].(string)
	emit(sid, map[string]any{"task_id": id, "energy_per_atom": epa, "n": int64(1)})
}

func taskReducer(_ string, vs []any) any {
	var best map[string]any
	var bestE float64
	var n int64
	for _, v := range vs {
		m, ok := v.(map[string]any)
		if !ok {
			continue
		}
		e, _ := document.AsFloat(m["energy_per_atom"])
		if c, ok := document.AsFloat(m["n"]); ok {
			n += int64(c)
		} else {
			n++
		}
		if best == nil || e < bestE {
			best, bestE = m, e
		}
	}
	if best == nil {
		return nil
	}
	return map[string]any{
		"task_id":         best["task_id"],
		"energy_per_atom": bestE,
		"n":               n,
	}
}

// Build rebuilds the materials collection from scratch and returns the
// number of materials produced.
func (b *MaterialsBuilder) Build() (int, error) {
	if b.Store == nil {
		return 0, fmt.Errorf("builder: MaterialsBuilder needs a store")
	}
	tasks := b.Store.C("tasks")
	// groups come back sorted by structure id: a deterministic build order.
	groups, err := mapreduce.RunCollection(tasks, nil, taskMapper, taskReducer, b.Workers)
	if err != nil {
		return 0, err
	}

	mats := b.Store.C(MaterialsCollection)
	if _, err := mats.Remove(nil); err != nil {
		return 0, err
	}
	mats.EnsureOrderedIndex("pretty_formula")
	mats.EnsureOrderedIndex("elements")
	mats.EnsureOrderedIndex("band_gap")
	mats.EnsureOrderedIndex("nelectrons")

	mps := b.Store.C("mps")
	built := 0
	for _, g := range groups {
		sid := g.GetString("_id")
		taskID := g.GetString("value.task_id")
		if sid == "" || taskID == "" {
			continue
		}
		task, err := tasks.FindID(taskID)
		if err != nil {
			return built, fmt.Errorf("builder: best task %q for %q: %w", taskID, sid, err)
		}
		doc, err := b.materialDoc(sid, task, mps)
		if err != nil {
			return built, err
		}
		// All task ids of the group, for provenance ("the materials
		// collection is derived and can be rebuilt at any time").
		ids, mpsIDs, err := groupProvenance(tasks, sid)
		if err != nil {
			return built, err
		}
		doc["task_ids"] = ids
		doc["ntasks"] = int64(len(ids))
		doc["mps_ids"] = mpsIDs
		if _, err := mats.Insert(doc); err != nil {
			return built, err
		}
		built++
	}
	return built, nil
}

// groupProvenance lists the successful task ids and distinct source MPS
// records behind one material.
func groupProvenance(tasks *datastore.Collection, sid string) ([]any, []any, error) {
	docs, err := tasks.FindAll(document.D{
		"result.structure_id": sid, "state": "successful"}, &datastore.FindOpts{Sort: []string{"_id"}})
	if err != nil {
		return nil, nil, err
	}
	ids := make([]any, 0, len(docs))
	seen := map[string]bool{}
	var mpsIDs []any
	for _, d := range docs {
		ids = append(ids, d["_id"])
		if m := d.GetString("result.mps_id"); m != "" && !seen[m] {
			seen[m] = true
			mpsIDs = append(mpsIDs, m)
		}
	}
	return ids, mpsIDs, nil
}

// materialDoc assembles one material document from its best task plus
// the originating MPS record (for the initial structure).
func (b *MaterialsBuilder) materialDoc(sid string, task document.D, mps *datastore.Collection) (document.D, error) {
	res := task.GetDoc("result")
	if res == nil {
		return nil, fmt.Errorf("builder: task %v has no result", task["_id"])
	}
	formula := res.GetString("formula")
	doc := document.D{
		"_id":          "mat-" + sid,
		"structure_id": sid,
		"formula":      formula,
		"functional":   res.GetString("functional"),
		"best_task_id": task["_id"],
		"task_type":    res.GetString("task_type"),
	}
	if comp, err := crystal.ParseFormula(formula); err == nil {
		doc["pretty_formula"] = comp.ReducedFormula()
		elems := comp.Elements()
		elemsAny := make([]any, len(elems))
		for i, e := range elems {
			elemsAny[i] = e
		}
		doc["elements"] = elemsAny
		doc["nelements"] = int64(len(elems))
	} else {
		doc["pretty_formula"] = formula
	}
	if v, ok := res.GetFloat("final_energy"); ok {
		doc["final_energy"] = v
	}
	if v, ok := res.GetFloat("energy_per_atom"); ok {
		doc["e_per_atom"] = v
	}
	if v, ok := res.GetFloat("bandgap"); ok {
		doc["band_gap"] = v
	}
	if v, ok := res.GetFloat("max_force"); ok {
		doc["max_force"] = v
	}
	if v, ok := res.GetFloat("nelectrons"); ok {
		doc["nelectrons"] = v
	}
	// Final (relaxed) structure from the task, with derived geometry.
	if stDoc := res.GetDoc("structure"); stDoc != nil {
		doc["structure"] = map[string]any(stDoc.Copy())
		if st, err := crystal.StructureFromDoc(stDoc); err == nil {
			doc["nsites"] = int64(st.NumSites())
			doc["density"] = st.Density()
		}
	}
	// Initial structure from the source MPS record — the materials view
	// aggregates initial+final structures (Table I: materials out-node
	// MPS).
	if mpsID := res.GetString("mps_id"); mpsID != "" {
		if src, err := mps.FindID(mpsID); err == nil {
			if stDoc := src.GetDoc("structure"); stDoc != nil {
				doc["initial_structure"] = map[string]any(stDoc.Copy())
			}
		}
	}
	return doc, nil
}
