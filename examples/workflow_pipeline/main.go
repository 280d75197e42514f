// Workflow pipeline: FireWorks driving simulated VASP on a simulated
// HPC cluster, end to end.
//
// Shows the four §III-C3 features working: re-runs after walltime kills,
// detours after ZBRENT errors, duplicate detection via binders, and
// iterative non-convergence recovery — then builds the materials
// collection out of the tasks and prints what happened.
//
//	go run ./examples/workflow_pipeline
package main

import (
	"fmt"
	"log"
	"time"

	"matproj/internal/builder"
	"matproj/internal/datastore"
	"matproj/internal/dft"
	"matproj/internal/document"
	"matproj/internal/fireworks"
	"matproj/internal/hpc"
	"matproj/internal/icsd"
)

func main() {
	store := datastore.MustOpenMemory()
	pad := fireworks.NewLaunchPad(store, 5)
	fireworks.RegisterVASP(pad)

	// Load a duplicate-rich synthetic ICSD batch and make one relaxation
	// firework per record.
	mps := store.C("mps")
	recs := icsd.Generate(icsd.Config{Seed: 7, DuplicateRate: 0.25}, 50)
	var fws []fireworks.Firework
	for _, r := range recs {
		mdoc := r.ToDoc()
		if _, err := mps.Insert(mdoc); err != nil {
			log.Fatal(err)
		}
		fws = append(fws, fireworks.NewVASPFirework(mdoc, "relax", dft.DefaultParams(), 4*time.Hour))
	}
	wfID, err := pad.AddWorkflow(fws)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workflow %s: %d fireworks over %d ICSD records\n", wfID, len(fws), len(recs))

	// Execute with deliberately tight 45-minute batch jobs so some runs
	// die at the walltime and must be re-run.
	cluster := hpc.NewCluster(8, 4, hpc.Policy{WorkerOutbound: false, ProxyHost: "mongoproxy01"})
	jobs, err := fireworks.DriveCluster(pad, fireworks.NewVASPAssembler(store), cluster,
		"alice", 4, 45*time.Minute, nil)
	if err != nil {
		log.Fatal(err)
	}
	st := cluster.Stats()
	fmt.Printf("\ncluster: %d batch jobs, %v virtual makespan\n", jobs, st.Makespan.Round(time.Minute))
	fmt.Printf("tasks: %d completed on-node, %d killed at walltime\n", st.TasksDone, st.TasksKilled)

	// What did the recovery machinery do?
	engines := store.C(fireworks.EnginesCollection)
	count := func(f document.D) int {
		n, err := engines.Count(f)
		if err != nil {
			log.Fatal(err)
		}
		return n
	}
	fmt.Printf("\nFireWorks feature accounting:\n")
	fmt.Printf("  completed : %d\n", count(document.D{"state": string(fireworks.StateCompleted)}))
	fmt.Printf("  re-run    : %d fireworks needed at least one rerun\n", count(document.D{"reruns": document.D{"$gte": 1}}))
	fmt.Printf("  detours   : %d (ZBRENT, POTIM lowered)\n", count(document.D{"detour_of": document.D{"$exists": true}}))
	fmt.Printf("  duplicates: %d completed by pointer, no CPU spent\n", count(document.D{"output.duplicate_of": document.D{"$exists": true}}))
	fmt.Printf("  defused   : %d need manual intervention\n", count(document.D{"state": string(fireworks.StateDefused)}))

	// Post-process: tasks → materials.
	mb := &builder.MaterialsBuilder{Store: store}
	n, err := mb.Build()
	if err != nil {
		log.Fatal(err)
	}
	nTasks, _ := store.C("tasks").Count(nil)
	fmt.Printf("\nbuilder: %d tasks reduced to %d materials (dedup + best-energy pick)\n", nTasks, n)

	// And validate.
	runner := &builder.Runner{Store: store}
	violations, err := runner.RunChecks(builder.StandardChecks(store))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("V&V: %d violations\n", len(violations))
}
