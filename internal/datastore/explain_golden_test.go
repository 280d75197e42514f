package datastore

import (
	"fmt"
	"testing"

	"matproj/internal/document"
)

// Golden Explain tests: a fixed corpus and fixture queries whose full
// plan documents are pinned as canonical JSON. Any planner change that
// alters index selection, bounds, estimates, or the considered list
// shows up as a golden diff — intentional changes update the strings,
// accidental ones fail review. (document.D marshals with sorted keys,
// so the rendering is deterministic.)

// explainGoldenCollection builds the fixture corpus: 10 documents over
// the paper's query shapes (chemical system, electron count, band gap,
// element list, task id) with two single-field indexes, one compound,
// and one multikey.
func explainGoldenCollection(t *testing.T) *Collection {
	t.Helper()
	c := MustOpenMemory().C("materials")
	for i := 0; i < 10; i++ {
		doc := document.D{
			"_id":        fmt.Sprintf("m%02d", i),
			"chemsys":    []string{"Fe-O", "Li-O"}[i%2],
			"nelectrons": int64(10 + i),
			"band_gap":   float64(i) / 2,
			"elements":   []any{[]any{"Fe", "O"}, []any{"Li", "O"}}[i%2],
			"task_id":    fmt.Sprintf("mp-%d", i),
		}
		if _, err := c.Insert(document.NormalizeDoc(doc)); err != nil {
			t.Fatal(err)
		}
	}
	c.EnsureOrderedIndex("nelectrons")
	c.EnsureOrderedIndex("chemsys", "nelectrons")
	c.EnsureOrderedIndex("elements")
	c.EnsureOrderedIndex("task_id")
	return c
}

func TestExplainGolden(t *testing.T) {
	c := explainGoldenCollection(t)
	fixtures := []struct {
		name   string
		filter document.D
		opts   *FindOpts
		want   string
	}{
		{
			name:   "id-lookup",
			filter: document.D{"_id": "m03"},
			want:   `{"collection":"materials","considered":[],"estimated_candidates":1,"hinted":false,"mode":"id","ndocs":10,"reverse":false,"sort_satisfied":false}`,
		},
		{
			name:   "unindexed-scan",
			filter: document.D{"band_gap": document.D{"$gte": 1.0}},
			want:   `{"collection":"materials","considered":[],"estimated_candidates":10,"hinted":false,"mode":"scan","ndocs":10,"reverse":false,"sort_satisfied":false}`,
		},
		{
			name:   "single-field-equality",
			filter: document.D{"task_id": "mp-4"},
			want:   `{"bounds":"task_id = mp-4","collection":"materials","considered":[{"estimate":1,"index":"task_id","kind":"ordered"}],"estimated_candidates":1,"hinted":false,"index":"task_id","index_kind":"ordered","mode":"index","ndocs":10,"residual_paths":[],"reverse":false,"sort_satisfied":false}`,
		},
		{
			name:   "ordered-range",
			filter: document.D{"nelectrons": document.D{"$gte": int64(12), "$lt": int64(15)}},
			want:   `{"bounds":"nelectrons [12, 15)","collection":"materials","considered":[{"estimate":3,"index":"nelectrons","kind":"ordered"}],"estimated_candidates":3,"hinted":false,"index":"nelectrons","index_kind":"ordered","mode":"index","ndocs":10,"residual_paths":[],"reverse":false,"sort_satisfied":false}`,
		},
		{
			name:   "ordered-range-sorted",
			filter: document.D{"nelectrons": document.D{"$gte": int64(12)}},
			opts:   &FindOpts{Sort: []string{"nelectrons"}},
			want:   `{"bounds":"nelectrons [12, +inf)","collection":"materials","considered":[{"estimate":8,"index":"nelectrons","kind":"ordered"}],"estimated_candidates":8,"hinted":false,"index":"nelectrons","index_kind":"ordered","mode":"index","ndocs":10,"residual_paths":[],"reverse":false,"sort_satisfied":true}`,
		},
		{
			name:   "ordered-range-sorted-desc",
			filter: document.D{"nelectrons": document.D{"$lt": int64(14)}},
			opts:   &FindOpts{Sort: []string{"-nelectrons"}},
			want:   `{"bounds":"nelectrons (-inf, 14)","collection":"materials","considered":[{"estimate":4,"index":"nelectrons","kind":"ordered"}],"estimated_candidates":4,"hinted":false,"index":"nelectrons","index_kind":"ordered","mode":"index","ndocs":10,"residual_paths":[],"reverse":true,"sort_satisfied":true}`,
		},
		{
			name:   "compound-eq-plus-range",
			filter: document.D{"chemsys": "Fe-O", "nelectrons": document.D{"$gte": int64(12)}},
			want:   `{"bounds":"chemsys = Fe-O, nelectrons [12, +inf)","collection":"materials","considered":[{"estimate":4,"index":"chemsys,nelectrons","kind":"ordered"},{"estimate":8,"index":"nelectrons","kind":"ordered"}],"estimated_candidates":4,"hinted":false,"index":"chemsys,nelectrons","index_kind":"ordered","mode":"index","ndocs":10,"residual_paths":[],"reverse":false,"sort_satisfied":false}`,
		},
		{
			name:   "compound-eq-prefix-only",
			filter: document.D{"chemsys": "Li-O", "band_gap": document.D{"$lt": 2.0}},
			want:   `{"bounds":"chemsys = Li-O","collection":"materials","considered":[{"estimate":5,"index":"chemsys,nelectrons","kind":"ordered"}],"estimated_candidates":5,"hinted":false,"index":"chemsys,nelectrons","index_kind":"ordered","mode":"index","ndocs":10,"residual_paths":["band_gap"],"reverse":false,"sort_satisfied":false}`,
		},
		{
			name:   "in-membership",
			filter: document.D{"nelectrons": document.D{"$in": []any{int64(11), int64(13), int64(99)}}},
			want:   `{"bounds":"nelectrons in (3 values)","collection":"materials","considered":[{"estimate":2,"index":"nelectrons","kind":"ordered"}],"estimated_candidates":2,"hinted":false,"index":"nelectrons","index_kind":"ordered","mode":"index","ndocs":10,"residual_paths":[],"reverse":false,"sort_satisfied":false}`,
		},
		{
			// A two-sided range over the multikey index degrades to its
			// min bound; the widened estimate (3 region keys x avg bucket
			// size 6) then loses to the full scan — correct costing.
			name:   "multikey-two-sided-prefers-scan",
			filter: document.D{"elements": document.D{"$gte": "Fe", "$lte": "O"}},
			want:   `{"collection":"materials","considered":[{"estimate":18,"index":"elements","kind":"ordered"}],"estimated_candidates":10,"hinted":false,"mode":"scan","ndocs":10,"reverse":false,"sort_satisfied":false}`,
		},
		{
			// Hinting the multikey index surfaces the degraded bounds:
			// the max bound is dropped (different elements may satisfy
			// the two bounds), the residual filter re-verifies.
			name:   "multikey-two-sided-hinted-degrades-to-min",
			filter: document.D{"elements": document.D{"$gte": "Fe", "$lte": "O"}},
			opts:   &FindOpts{Hint: "elements"},
			want:   `{"bounds":"elements [Fe, +inf)","collection":"materials","considered":[{"estimate":18,"index":"elements","kind":"ordered"}],"estimated_candidates":18,"hinted":true,"index":"elements","index_kind":"ordered","mode":"index","ndocs":10,"residual_paths":[],"reverse":false,"sort_satisfied":false}`,
		},
		{
			name:   "hinted-full-index-scan",
			filter: document.D{"band_gap": document.D{"$gte": 1.0}},
			opts:   &FindOpts{Hint: "chemsys,nelectrons"},
			want:   `{"bounds":"full index scan","collection":"materials","considered":[],"estimated_candidates":10,"hinted":true,"index":"chemsys,nelectrons","index_kind":"ordered","mode":"index","ndocs":10,"residual_paths":["band_gap"],"reverse":false,"sort_satisfied":false}`,
		},
		{
			name:   "sort-only-full-index-walk",
			filter: document.D{"band_gap": document.D{"$gte": 0.0}},
			opts:   &FindOpts{Sort: []string{"nelectrons"}},
			want:   `{"bounds":"full index scan","collection":"materials","considered":[{"estimate":10,"index":"nelectrons","kind":"ordered"}],"estimated_candidates":10,"hinted":false,"index":"nelectrons","index_kind":"ordered","mode":"index","ndocs":10,"residual_paths":["band_gap"],"reverse":false,"sort_satisfied":true}`,
		},
		{
			// A projection, even one that drops the sort field, does not
			// stop the walk: find projects only the page it sorted.
			name:   "sort-projected-full-index-walk",
			filter: document.D{"band_gap": document.D{"$gte": 0.0}},
			opts:   &FindOpts{Sort: []string{"nelectrons"}, Projection: document.D{"task_id": int64(1)}},
			want:   `{"bounds":"full index scan","collection":"materials","considered":[{"estimate":10,"index":"nelectrons","kind":"ordered"}],"estimated_candidates":10,"hinted":false,"index":"nelectrons","index_kind":"ordered","mode":"index","ndocs":10,"residual_paths":["band_gap"],"reverse":false,"sort_satisfied":true}`,
		},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			plan, err := c.Explain(fx.filter, fx.opts)
			if err != nil {
				t.Fatalf("explain: %v", err)
			}
			got, err := plan.ToJSON()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			if string(got) != fx.want {
				t.Errorf("plan drifted from golden\n got: %s\nwant: %s", got, fx.want)
			}
		})
	}
}

// TestExplainGoldenResultsAgree double-checks that every fixture's
// chosen plan also executes correctly: the documents returned equal an
// index-free twin's. (The oracle covers this at scale; here it guards
// the exact pinned plans.)
func TestExplainGoldenResultsAgree(t *testing.T) {
	c := explainGoldenCollection(t)
	truth := MustOpenMemory().C("materials")
	for i := 0; i < 10; i++ {
		doc := document.D{
			"_id":        fmt.Sprintf("m%02d", i),
			"chemsys":    []string{"Fe-O", "Li-O"}[i%2],
			"nelectrons": int64(10 + i),
			"band_gap":   float64(i) / 2,
			"elements":   []any{[]any{"Fe", "O"}, []any{"Li", "O"}}[i%2],
			"task_id":    fmt.Sprintf("mp-%d", i),
		}
		if _, err := truth.Insert(document.NormalizeDoc(doc)); err != nil {
			t.Fatal(err)
		}
	}
	filters := []document.D{
		{"task_id": "mp-4"},
		{"nelectrons": document.D{"$gte": int64(12), "$lt": int64(15)}},
		{"chemsys": "Fe-O", "nelectrons": document.D{"$gte": int64(12)}},
		{"elements": document.D{"$gte": "Fe", "$lte": "O"}},
		{"nelectrons": document.D{"$in": []any{int64(11), int64(13), int64(99)}}},
	}
	for _, f := range filters {
		opts := &FindOpts{Sort: []string{"_id"}}
		got, err := c.FindAll(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := truth.FindAll(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("filter %v: subject %d docs, truth %d", f, len(got), len(want))
		}
		for i := range got {
			if !document.Equal(map[string]any(got[i]), map[string]any(want[i])) {
				t.Fatalf("filter %v: doc %d differs", f, i)
			}
		}
	}
}
