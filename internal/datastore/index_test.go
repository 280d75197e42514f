package datastore

import (
	"fmt"
	"testing"
	"testing/quick"

	"matproj/internal/document"
)

// seedElements populates a collection with n docs cycling through element
// combinations and returns it.
func seedElements(tb testing.TB, n int) *Collection {
	tb.Helper()
	c := MustOpenMemory().C("mps")
	combos := [][]any{
		{"Li", "O"}, {"Li", "Fe", "O"}, {"Na", "O"}, {"Fe", "O"}, {"Li", "Co", "O"},
	}
	for i := 0; i < n; i++ {
		_, err := c.Insert(document.D{
			"_id":        fmt.Sprintf("m%06d", i),
			"elements":   combos[i%len(combos)],
			"nelectrons": int64(50 + i%300),
			"formula":    fmt.Sprintf("F%d", i),
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

func TestIndexEqualityMatchesFullScan(t *testing.T) {
	c := seedElements(t, 500)
	filter := doc(`{"nelectrons": 120}`)
	scan, _ := c.FindAll(filter, nil)
	c.EnsureOrderedIndex("nelectrons")
	indexed, _ := c.FindAll(filter, nil)
	if len(scan) == 0 || len(scan) != len(indexed) {
		t.Fatalf("scan=%d indexed=%d", len(scan), len(indexed))
	}
	for i := range scan {
		if scan[i]["_id"] != indexed[i]["_id"] {
			t.Fatalf("order mismatch at %d", i)
		}
	}
}

func TestMultikeyIndexOnElements(t *testing.T) {
	c := seedElements(t, 500)
	filter := doc(`{"elements": {"$all": ["Li", "O"]}, "nelectrons": {"$lte": 200}}`)
	scan, _ := c.FindAll(filter, nil)
	c.EnsureOrderedIndex("elements")
	indexed, _ := c.FindAll(filter, nil)
	if len(scan) != len(indexed) {
		t.Fatalf("scan=%d indexed=%d", len(scan), len(indexed))
	}
	// Scalar equality against multikey index.
	li, _ := c.FindAll(doc(`{"elements": "Na"}`), nil)
	if len(li) != 100 {
		t.Errorf("Na count = %d, want 100", len(li))
	}
}

func TestRangeIndexMatchesFullScan(t *testing.T) {
	c := seedElements(t, 500)
	for _, f := range []string{
		`{"nelectrons": {"$gte": 100, "$lt": 150}}`,
		`{"nelectrons": {"$gt": 100, "$lte": 150}}`,
		`{"nelectrons": {"$lt": 75}}`,
		`{"nelectrons": {"$gte": 340}}`,
	} {
		filter := doc(f)
		scan, _ := c.FindAll(filter, nil)
		c.EnsureOrderedIndex("nelectrons")
		indexed, _ := c.FindAll(filter, nil)
		if len(scan) != len(indexed) {
			t.Errorf("%s: scan=%d indexed=%d", f, len(scan), len(indexed))
		}
		c.DropOrderedIndex("nelectrons")
	}
}

func TestIndexMaintainedAcrossRemove(t *testing.T) {
	c := seedElements(t, 100)
	c.EnsureOrderedIndex("elements")
	c.Remove(doc(`{"elements": "Na"}`))
	got, _ := c.FindAll(doc(`{"elements": "Na"}`), nil)
	if len(got) != 0 {
		t.Errorf("stale index after remove: %d", len(got))
	}
}

func TestEnsureIndexIdempotentAndIgnoresID(t *testing.T) {
	c := seedElements(t, 10)
	c.EnsureOrderedIndex("elements")
	c.EnsureOrderedIndex("elements")
	c.EnsureOrderedIndex("_id")
	c.EnsureOrderedIndex("")
	st := c.Stats()
	if len(st.Indexes) != 1 {
		t.Errorf("indexes = %v", st.Indexes)
	}
}

func TestIDFastPath(t *testing.T) {
	c := seedElements(t, 100)
	got, _ := c.FindAll(doc(`{"_id": "m000042"}`), nil)
	if len(got) != 1 || got[0]["formula"] != "F42" {
		t.Errorf("got %v", got)
	}
	none, _ := c.FindAll(doc(`{"_id": "missing"}`), nil)
	if len(none) != 0 {
		t.Error("missing id matched")
	}
	// _id equality with extra non-matching condition.
	none2, _ := c.FindAll(doc(`{"_id": "m000042", "formula": "WRONG"}`), nil)
	if len(none2) != 0 {
		t.Error("fast path ignored remaining filter")
	}
}

func TestIndexCrossNumericEquality(t *testing.T) {
	c := MustOpenMemory().C("x")
	c.Insert(document.D{"n": int64(3)})
	c.EnsureOrderedIndex("n")
	got, _ := c.FindAll(document.D{"n": 3.0}, nil)
	if len(got) != 1 {
		t.Errorf("3.0 lookup found %d", len(got))
	}
}

func TestIndexOnMissingFieldStillFindsOthers(t *testing.T) {
	c := MustOpenMemory().C("x")
	c.Insert(doc(`{"a": 1}`))
	c.Insert(doc(`{"b": 2}`))
	c.EnsureOrderedIndex("a")
	// Filter on an indexed field: index gives candidates; doc without the
	// field must not match.
	got, _ := c.FindAll(doc(`{"a": 1}`), nil)
	if len(got) != 1 {
		t.Errorf("got %d", len(got))
	}
	// Lookup of absent value returns empty candidate set, not full scan.
	none, _ := c.FindAll(doc(`{"a": 99}`), nil)
	if len(none) != 0 {
		t.Errorf("got %d", len(none))
	}
}

func TestQuickIndexedEqualsScan(t *testing.T) {
	f := func(vals []uint8, probe uint8) bool {
		ci := MustOpenMemory().C("i")
		cs := MustOpenMemory().C("s")
		for i, v := range vals {
			d := document.D{"_id": fmt.Sprintf("d%d", i), "v": int64(v % 8)}
			ci.Insert(d)
			cs.Insert(d)
		}
		ci.EnsureOrderedIndex("v")
		filter := document.D{"v": int64(probe % 8)}
		a, _ := ci.FindAll(filter, nil)
		b, _ := cs.FindAll(filter, nil)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i]["_id"] != b[i]["_id"] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRangeIndexedEqualsScan(t *testing.T) {
	f := func(vals []int16, lo, hi int16) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		ci := MustOpenMemory().C("i")
		cs := MustOpenMemory().C("s")
		for i, v := range vals {
			d := document.D{"_id": fmt.Sprintf("d%d", i), "v": int64(v)}
			ci.Insert(d)
			cs.Insert(d)
		}
		ci.EnsureOrderedIndex("v")
		filter := document.D{"v": document.D{"$gte": int64(lo), "$lte": int64(hi)}}
		a, _ := ci.FindAll(filter, nil)
		b, _ := cs.FindAll(filter, nil)
		return len(a) == len(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Regression: int64 keys beyond float64's exact range (|x| > 2^53) used to
// be rendered through float64+%g, so distinct huge integers collapsed into
// one bucket and indexed equality lookups returned the wrong documents.
func TestIndexHugeInt64KeysStayDistinct(t *testing.T) {
	c := MustOpenMemory().C("big")
	// Both values round to the same float64, so a key rendered through
	// float64 would give them identical buckets.
	a := int64(1<<53) + 1 // 9007199254740993, rounds to 9007199254740992
	b := int64(1 << 53)   // 9007199254740992 exactly
	if float64(a) != float64(b) {
		t.Fatalf("test premise broken: float64(%d) != float64(%d)", a, b)
	}
	c.Insert(document.D{"_id": "a", "v": a})
	c.Insert(document.D{"_id": "b", "v": b})
	c.EnsureOrderedIndex("v")

	for _, tc := range []struct {
		val  int64
		want string
	}{{a, "a"}, {b, "b"}} {
		docs, err := c.FindAll(document.D{"v": tc.val}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(docs) != 1 || docs[0]["_id"] != tc.want {
			t.Errorf("lookup %d: got %v, want only %q", tc.val, docs, tc.want)
		}
	}

	// The indexed plan must agree with an unindexed scan.
	s := MustOpenMemory().C("scan")
	s.Insert(document.D{"_id": "a", "v": a})
	s.Insert(document.D{"_id": "b", "v": b})
	for _, v := range []int64{a, b} {
		idx, _ := c.FindAll(document.D{"v": v}, nil)
		scn, _ := s.FindAll(document.D{"v": v}, nil)
		if len(idx) != len(scn) {
			t.Errorf("indexed=%d scanned=%d for %d", len(idx), len(scn), v)
		}
	}
}

// The 3 == 3.0 collapse survives the fix wherever the float is exact, and
// only there: fractional and astronomically large floats keep their own
// buckets.
func TestIndexNumericCollapseOnlyWhereExact(t *testing.T) {
	c := MustOpenMemory().C("mix")
	c.Insert(document.D{"_id": "int", "v": int64(3)})
	c.EnsureOrderedIndex("v")

	// float64 3.0 must find the int64 3 document through the index.
	docs, err := c.FindAll(document.D{"v": float64(3)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0]["_id"] != "int" {
		t.Errorf("3.0 lookup = %v, want the int64 3 doc", docs)
	}

	// A huge int64 and a nearby non-equal float do not collapse.
	c.Insert(document.D{"_id": "huge", "v": int64(1<<53) + 1})
	docs, _ = c.FindAll(document.D{"v": float64(1 << 53)}, nil)
	for _, d := range docs {
		if d["_id"] == "huge" {
			t.Errorf("float64(2^53) matched int64(2^53+1) through the index")
		}
	}

	// An integral float beyond 2^53 that IS exactly an int64 still
	// collapses with that int64 (1<<60 is exactly representable).
	c.Insert(document.D{"_id": "exact60", "v": int64(1 << 60)})
	docs, _ = c.FindAll(document.D{"v": float64(1 << 60)}, nil)
	if len(docs) != 1 || docs[0]["_id"] != "exact60" {
		t.Errorf("float64(2^60) lookup = %v, want the int64 2^60 doc", docs)
	}
}
