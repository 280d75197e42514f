// Command mpload runs the post-processing tier (§IV-C): it incrementally
// loads raw run logs from a staging directory into the tasks collection,
// rebuilds the materials collection with the MapReduce builder, and runs
// the standard validation & verification suite.
//
//	mpload -data ./mpdata -staging ./outcars -workers 4
package main

import (
	"flag"
	"log"

	"matproj/internal/builder"
	"matproj/internal/datastore"
	"matproj/internal/dft"
)

func main() {
	dataDir := flag.String("data", "", "durable store directory (empty = in-memory)")
	staging := flag.String("staging", "", "staging directory of *.outcar files (optional)")
	workers := flag.Int("workers", 0, "MapReduce engine workers (0 = GOMAXPROCS)")
	skipVV := flag.Bool("skip-vv", false, "skip validation & verification")
	stability := flag.Bool("stability", true, "annotate materials with hull stability")
	flag.Parse()

	store, err := datastore.Open(*dataDir)
	if err != nil {
		log.Fatalf("mpload: %v", err)
	}
	defer store.Close()

	if *staging != "" {
		loader := &builder.Loader{Store: store, Dir: *staging}
		res, err := loader.Run()
		if err != nil {
			log.Fatalf("mpload: load: %v", err)
		}
		log.Printf("load pass: %d loaded, %d skipped (already loaded), %d failed %v",
			res.Loaded, res.Skipped, len(res.Failed), res.Failed)
	}

	mb := &builder.MaterialsBuilder{Store: store, Workers: *workers}
	n, err := mb.Build()
	if err != nil {
		log.Fatalf("mpload: build: %v", err)
	}
	log.Printf("materials collection rebuilt: %d materials", n)

	if *stability {
		sb := &builder.StabilityBuilder{Store: store, RefEnergy: dft.ElementalEnergy}
		annotated, skipped, err := sb.Build()
		if err != nil {
			log.Fatalf("mpload: stability: %v", err)
		}
		log.Printf("stability annotation: %d materials, %d skipped", annotated, skipped)
	}

	if !*skipVV {
		runner := &builder.Runner{Store: store, Workers: *workers}
		violations, err := runner.RunChecks(builder.StandardChecks(store))
		if err != nil {
			log.Fatalf("mpload: v&v: %v", err)
		}
		if len(violations) == 0 {
			log.Printf("V&V: clean")
		} else {
			for _, v := range violations {
				log.Printf("V&V VIOLATION [%s] %s: %s", v.Check, v.Key, v.Message)
			}
			log.Fatalf("mpload: %d V&V violations", len(violations))
		}
	}
	if *dataDir != "" {
		if err := store.Snapshot(); err != nil {
			log.Fatalf("mpload: snapshot: %v", err)
		}
		log.Printf("snapshot written")
	}
}
