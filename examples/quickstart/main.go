// Quickstart: the document store in five minutes.
//
// Demonstrates the core datastore API the whole system is built on:
// collections, Mongo-style queries (including the exact job-selection
// query from the paper), atomic updates, find-and-modify as a task-queue
// primitive, indexes, and MapReduce.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/mapreduce"
)

func main() {
	store := datastore.MustOpenMemory()
	crystals := store.C("crystals")

	// Insert a few crystal records. Documents are plain nested maps.
	rows := []string{
		`{"formula": "LiFePO4", "elements": ["Li", "Fe", "P", "O"], "nelectrons": 78, "state": "ready"}`,
		`{"formula": "LiCoO2",  "elements": ["Li", "Co", "O"],      "nelectrons": 46, "state": "ready"}`,
		`{"formula": "NaCl",    "elements": ["Cl", "Na"],           "nelectrons": 28, "state": "ready"}`,
		`{"formula": "Li2O",    "elements": ["Li", "O"],            "nelectrons": 14, "state": "ready"}`,
		`{"formula": "Fe2O3",   "elements": ["Fe", "O"],            "nelectrons": 76, "state": "ready"}`,
	}
	for _, r := range rows {
		if _, err := crystals.Insert(document.MustFromJSON(r)); err != nil {
			log.Fatal(err)
		}
	}
	crystals.EnsureOrderedIndex("elements")

	// The paper's §III-B2 example: "select jobs for crystals containing
	// both lithium and oxygen atoms with less than 200 electrons".
	filter := document.MustFromJSON(`{"elements": {"$all": ["Li", "O"]}, "nelectrons": {"$lte": 200}}`)
	matches, err := crystals.FindAll(filter, &datastore.FindOpts{Sort: []string{"nelectrons"}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("crystals with Li and O, ≤200 electrons:")
	for _, m := range matches {
		fmt.Printf("  %-10s nelectrons=%v\n", m["formula"], m["nelectrons"])
	}

	// FindAndModify is the task-queue claim primitive: each call hands a
	// distinct "ready" document to a worker, atomically.
	claimed, err := crystals.FindAndModify(
		document.D{"state": "ready"},
		document.D{"$set": document.D{"state": "running", "worker": "w1"}},
		[]string{"nelectrons"}, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nworker w1 claimed: %v (state now %v)\n", claimed["formula"], claimed["state"])

	// Atomic updates with Mongo operator syntax.
	if _, err := crystals.UpdateMany(
		document.D{"elements": "Li"},
		document.MustFromJSON(`{"$set": {"tags": ["battery"]}, "$inc": {"views": 1}}`)); err != nil {
		log.Fatal(err)
	}

	// MapReduce: count crystals per first element.
	counts, err := mapreduce.RunCollection(crystals, nil,
		func(d document.D, emit func(string, any)) {
			if els := d.GetArray("elements"); len(els) > 0 {
				emit(els[0].(string), int64(1))
			}
		},
		func(_ string, vs []any) any {
			var n int64
			for _, v := range vs {
				n += v.(int64)
			}
			return n
		}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncrystals per leading element:")
	for _, c := range counts {
		fmt.Printf("  %-4v %v\n", c["_id"], c["value"])
	}

	st := store.Stats()
	fmt.Printf("\nstore: %d collections, %d documents, ~%d bytes\n", st.Collections, st.Documents, st.Bytes)
}
