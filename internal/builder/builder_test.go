package builder

import (
	"os"
	"path/filepath"
	"testing"

	"matproj/internal/datastore"
	"matproj/internal/dft"
	"matproj/internal/document"
	"matproj/internal/icsd"
)

// seedTasks inserts a small tasks+mps fixture: two structures, one with
// a redetermination (two successful tasks, different energies) plus one
// failed task that must be ignored.
func seedTasks(t *testing.T, store *datastore.Store) {
	t.Helper()
	mps := store.C("mps")
	for _, r := range icsd.Generate(icsd.Config{Seed: 11}, 2) {
		if _, err := mps.Insert(r.ToDoc()); err != nil {
			t.Fatal(err)
		}
	}
	mpsDocs, err := mps.FindAll(nil, &datastore.FindOpts{Sort: []string{"_id"}})
	if err != nil || len(mpsDocs) != 2 {
		t.Fatalf("mps fixture: %v (%d docs)", err, len(mpsDocs))
	}
	tasks := store.C("tasks")
	type row struct {
		mpsIdx int
		sid    string
		energy float64
		state  string
	}
	rows := []row{
		{0, "s-alpha", -12.0, "successful"},
		{0, "s-alpha", -14.0, "successful"}, // redetermination, lower energy wins
		{1, "s-beta", -9.0, "successful"},
		{1, "s-beta", 0, "failed"},
	}
	for _, r := range rows {
		src := mpsDocs[r.mpsIdx]
		doc := document.D{
			"state": r.state,
			"result": map[string]any{
				"mps_id":          src["_id"],
				"structure_id":    r.sid,
				"task_type":       "relax",
				"formula":         src["formula"],
				"functional":      "GGA",
				"converged":       r.state == "successful",
				"final_energy":    r.energy,
				"energy_per_atom": r.energy / 4,
				"bandgap":         1.25,
				"nelectrons":      42.0,
				"max_force":       0.01,
				"structure":       src["structure"],
			},
		}
		if r.state == "failed" {
			delete(doc.GetDoc("result"), "final_energy")
			delete(doc.GetDoc("result"), "energy_per_atom")
		}
		if _, err := tasks.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMaterialsBuilderPicksBestTask(t *testing.T) {
	for _, workers := range []int{1, 4} {
		store := datastore.MustOpenMemory()
		seedTasks(t, store)
		mb := &MaterialsBuilder{Store: store, Workers: workers}
		n, err := mb.Build()
		if err != nil {
			t.Fatal(err)
		}
		if n != 2 {
			t.Fatalf("workers %d: built %d materials, want 2", workers, n)
		}
		alpha, err := store.C(MaterialsCollection).FindID("mat-s-alpha")
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if e, _ := alpha.GetFloat("final_energy"); e != -14.0 {
			t.Errorf("workers %d: best energy %v, want -14", workers, e)
		}
		if ntasks, _ := alpha.GetInt("ntasks"); ntasks != 2 {
			t.Errorf("workers %d: ntasks %d, want 2", workers, ntasks)
		}
		if alpha.GetString("pretty_formula") == "" {
			t.Errorf("workers %d: missing pretty_formula", workers)
		}
		if !alpha.Has("structure") || !alpha.Has("initial_structure") {
			t.Errorf("workers %d: material must carry final and initial structures", workers)
		}
		if _, ok := alpha.GetFloat("e_per_atom"); !ok {
			t.Errorf("workers %d: missing e_per_atom", workers)
		}
	}
}

func TestMaterialsBuilderRebuildIsIdempotent(t *testing.T) {
	store := datastore.MustOpenMemory()
	seedTasks(t, store)
	mb := &MaterialsBuilder{Store: store}
	if _, err := mb.Build(); err != nil {
		t.Fatal(err)
	}
	n, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := store.C(MaterialsCollection).Count(nil)
	if got != n || n != 2 {
		t.Fatalf("rebuild: count %d, returned %d, want 2", got, n)
	}
}

func TestStabilityBuilderAnnotates(t *testing.T) {
	store := datastore.MustOpenMemory()
	seedTasks(t, store)
	if _, err := (&MaterialsBuilder{Store: store}).Build(); err != nil {
		t.Fatal(err)
	}
	sb := &StabilityBuilder{Store: store, RefEnergy: dft.ElementalEnergy}
	annotated, skipped, err := sb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if annotated == 0 {
		t.Fatalf("annotated %d materials (skipped %d)", annotated, skipped)
	}
	docs, err := store.C(MaterialsCollection).FindAll(document.D{"e_above_hull": document.D{"$exists": true}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != annotated {
		t.Fatalf("%d docs carry e_above_hull, want %d", len(docs), annotated)
	}
	for _, d := range docs {
		eah, _ := d.GetFloat("e_above_hull")
		if eah < 0 {
			t.Errorf("material %v: negative e_above_hull %v", d["_id"], eah)
		}
		if !d.Has("formation_energy_per_atom") || !d.Has("is_stable") {
			t.Errorf("material %v missing stability fields", d["_id"])
		}
	}
}

func TestRunnerReportsViolationsAndFilesReports(t *testing.T) {
	store := datastore.MustOpenMemory()
	seedTasks(t, store)
	if _, err := (&MaterialsBuilder{Store: store}).Build(); err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Store: store}
	checks := StandardChecks(store)
	violations, err := runner.RunChecks(checks)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("clean fixture produced violations: %+v", violations)
	}
	nReports, _ := store.C(ReportsCollection).Count(nil)
	if nReports != len(checks) {
		t.Fatalf("reports %d, want %d", nReports, len(checks))
	}

	// Now break an invariant: a successful task without energies.
	if _, err := store.C("tasks").Insert(document.D{
		"_id": "task-broken", "state": "successful",
		"result": map[string]any{"structure_id": "s-broken"},
	}); err != nil {
		t.Fatal(err)
	}
	violations, err = runner.RunChecks(checks)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range violations {
		if v.Check == "tasks-successful-complete" && v.Key == "task-broken" {
			found = true
		}
	}
	if !found {
		t.Fatalf("broken task not flagged; got %+v", violations)
	}
}

func TestLoaderIncrementalAndIdempotent(t *testing.T) {
	dir := t.TempDir()
	// Generate a real raw run log with the DFT simulator.
	rec := icsd.Generate(icsd.Config{Seed: 3}, 1)[0]
	res, err := dft.Run(rec.Structure, dft.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "run-000001.outcar"), res.Outcar, 0o644); err != nil {
		t.Fatal(err)
	}
	meta := []byte(`{"mps_id": "` + rec.ID + `", "structure_id": "sid-1", "task_type": "relax"}`)
	if err := os.WriteFile(filepath.Join(dir, "run-000001.meta.json"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	// A garbage file must land in Failed without aborting the pass.
	if err := os.WriteFile(filepath.Join(dir, "garbage.outcar"), []byte("not a run log"), 0o644); err != nil {
		t.Fatal(err)
	}

	store := datastore.MustOpenMemory()
	loader := &Loader{Store: store, Dir: dir}
	lr, err := loader.Run()
	if err != nil {
		t.Fatal(err)
	}
	if lr.Loaded != 1 || lr.Skipped != 0 || len(lr.Failed) != 1 {
		t.Fatalf("first pass: %+v", lr)
	}
	task, err := store.C("tasks").FindOne(document.D{"loaded_from": "run-000001"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if task.GetString("result.mps_id") != rec.ID {
		t.Errorf("sidecar metadata not merged: %v", task.GetDoc("result"))
	}

	lr, err = loader.Run()
	if err != nil {
		t.Fatal(err)
	}
	if lr.Loaded != 0 || lr.Skipped != 1 {
		t.Fatalf("second pass should skip: %+v", lr)
	}
	n, _ := store.C("tasks").Count(document.D{"loaded_from": "run-000001"})
	if n != 1 {
		t.Fatalf("double-loaded: %d", n)
	}
}
