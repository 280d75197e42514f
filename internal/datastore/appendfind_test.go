package datastore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"matproj/internal/document"
	"matproj/internal/query"
)

// storedRef returns the stored document itself — what AppendFind encodes
// after releasing the read lock — and its encoding.
func storedRef(t *testing.T, c *Collection, id string) (document.D, []byte) {
	t.Helper()
	c.mu.RLock()
	d, ok := c.docs[id]
	c.mu.RUnlock()
	if !ok {
		t.Fatalf("%s not stored", id)
	}
	b, err := document.AppendJSON(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	return d, b
}

// TestStoredDocumentsAreNeverMutated pins the invariant AppendFind rests
// on: a write replaces a stored document and never writes through it, so
// a reference taken before the write still encodes to the same bytes
// after it. Every mutator that rewrites a document is run against a held
// reference — update, upsert, findAndModify, bulkWrite and a replicated
// apply — and each must have changed the stored document.
func TestStoredDocumentsAreNeverMutated(t *testing.T) {
	primary := MustOpenMemory()
	primary.EnableReplication(0)
	follower := MustOpenMemory()
	c, fc := primary.C("m"), follower.C("m")
	seed := document.D{
		"_id": "a", "n": int64(1), "tags": []any{"x"},
		"nested": map[string]any{"deep": map[string]any{"v": 1.5}, "list": []any{map[string]any{"k": "v"}}},
	}
	if _, err := c.Insert(seed); err != nil {
		t.Fatal(err)
	}
	ship := func() {
		t.Helper()
		lines, _, err := primary.ReplTail(follower.ReplGen(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, torn, err := follower.ApplyReplEntries(lines); err != nil || torn {
			t.Fatalf("apply: torn=%v err=%v", torn, err)
		}
	}
	ship()

	a := document.D{"_id": "a"}
	for _, step := range []struct {
		name  string
		coll  *Collection
		write func() error
	}{
		{"updateOne", c, func() error {
			_, err := c.UpdateOne(a, document.D{"$set": document.D{"nested.deep.v": 2.5}, "$push": document.D{"tags": "y"}})
			return err
		}},
		{"updateMany", c, func() error {
			_, err := c.UpdateMany(a, document.D{"$inc": document.D{"n": int64(1)}, "$unset": document.D{"nested.list": ""}})
			return err
		}},
		{"upsert", c, func() error {
			_, err := c.Upsert(a, document.D{"$set": document.D{"nested.deep.w": "new"}})
			return err
		}},
		{"findAndModify", c, func() error {
			_, err := c.FindAndModify(a, document.D{"$push": document.D{"tags": "z"}}, nil, true)
			return err
		}},
		{"bulkWrite", c, func() error {
			_, err := c.BulkWrite([]BulkOp{{Op: BulkUpdateOne, Filter: a, Update: document.D{"$set": document.D{"nested.deep": document.D{"v": int64(9)}}}}})
			return err
		}},
		{"replicated apply", fc, func() error {
			if _, err := c.UpdateOne(a, document.D{"$set": document.D{"tags.0": "replicated"}}); err != nil {
				return err
			}
			ship()
			return nil
		}},
	} {
		ref, before := storedRef(t, step.coll, "a")
		if err := step.write(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if after, _ := document.AppendJSON(nil, ref); !bytes.Equal(after, before) {
			t.Errorf("%s wrote through a stored document:\n before %s\n after  %s", step.name, before, after)
		}
		if _, now := storedRef(t, step.coll, "a"); bytes.Equal(now, before) {
			t.Errorf("%s left the stored document unchanged; the step tests nothing", step.name)
		}
	}
}

// TestAppendFindMatchesFind checks the two outputs of the one query walk
// against each other: AppendFind's bytes are json.Marshal of what Find
// returns and its count is Find's, over id lookups, scans, index walks,
// projections, sorts, skips and limits, and an empty result is [] rather
// than null. AppendFindKeys writes the same bytes and each row's merge
// key, read from the stored document. AppendID encodes what FindID
// returns.
func TestAppendFindMatchesFind(t *testing.T) {
	c := MustOpenMemory().C("m")
	for i := 0; i < 60; i++ {
		d := document.D{"_id": fmt.Sprintf("d%02d", i), "g": float64(i%7) / 2, "n": int64(i % 5), "s": map[string]any{"k": []any{int64(i), "<&>"}}}
		if _, err := c.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	c.EnsureOrderedIndex("g")
	for _, tc := range []struct {
		filter document.D
		opts   *FindOpts
	}{
		{nil, nil},
		{document.D{"_id": "d07"}, nil},
		{document.D{"_id": document.D{"$in": []any{"d03", "d09", "missing"}}}, &FindOpts{Projection: document.D{"s": 0}}},
		{document.D{"g": document.D{"$gte": 1.0}}, &FindOpts{Sort: []string{"g"}, Skip: 3, Limit: 10}},
		{document.D{"g": document.D{"$gte": 1.0}}, &FindOpts{Sort: []string{"-n", "_id"}, Limit: 7, Projection: document.D{"n": 1, "s.k": 1}}},
		{document.D{"n": int64(2)}, &FindOpts{Limit: 4}},
		{document.D{"n": int64(2)}, &FindOpts{Skip: 100}},
		{document.D{"n": int64(99)}, nil},
	} {
		docs, err := c.FindAll(tc.filter, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if docs == nil {
			docs = []document.D{}
		}
		want, err := json.Marshal(docs)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := c.AppendFind([]byte("x"), tc.filter, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "x"+string(want) || n != len(docs) {
			t.Errorf("filter %v opts %+v:\n AppendFind %s (%d rows)\n Find       %s (%d rows)", tc.filter, tc.opts, got[1:], n, want, len(docs))
		}
		// The merge keys are read from the stored documents, before the
		// projection.
		var sortSpec []string
		if tc.opts != nil {
			sortSpec = tc.opts.Sort
		}
		if len(sortSpec) == 0 {
			sortSpec = []string{"_id"}
		}
		sortKeys, _ := query.ParseSort(sortSpec)
		wantKeys := []any{}
		for _, d := range docs {
			stored, err := c.FindID(d["_id"].(string))
			if err != nil {
				t.Fatal(err)
			}
			wantKeys = append(wantKeys, query.SortValues(nil, stored, sortKeys))
		}
		wantKeysJSON, _ := json.Marshal(wantKeys)
		gotDocs, gotKeys, n, err := c.AppendFindKeys(nil, []byte("y"), tc.filter, tc.opts)
		if err != nil || string(gotDocs) != string(want) || string(gotKeys) != "y"+string(wantKeysJSON) || n != len(docs) {
			t.Errorf("filter %v opts %+v: AppendFindKeys %s, keys %s, %d rows, %v; want keys y%s", tc.filter, tc.opts, gotDocs, gotKeys, n, err, wantKeysJSON)
		}
	}
	d, err := c.FindID("d11")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(d)
	if got, err := c.AppendID(nil, "d11"); err != nil || !bytes.Equal(got, want) {
		t.Errorf("AppendID = %s, %v; FindID encodes to %s", got, err, want)
	}
	if _, err := c.AppendID(nil, "missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("AppendID(missing) err = %v, want ErrNotFound", err)
	}
}
