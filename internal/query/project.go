package query

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"matproj/internal/document"
)

// Projection selects which fields of matching documents are returned,
// using MongoDB's {field: 1} inclusion / {field: 0} exclusion syntax.
// Inclusion and exclusion cannot be mixed except that "_id" may always be
// excluded from an inclusion projection.
type Projection struct {
	include bool
	paths   []string
	dropID  bool
}

// CompileProjection validates a projection document. A nil or empty
// projection returns documents whole.
func CompileProjection(p document.D) (*Projection, error) {
	if len(p) == 0 {
		return nil, nil
	}
	p = document.NormalizeDoc(p)
	proj := &Projection{}
	mode := 0 // 0 undecided, 1 include, -1 exclude
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := p[k]
		on, err := projFlag(v)
		if err != nil {
			return nil, fmt.Errorf("query: projection %q: %w", k, err)
		}
		if k == "_id" && !on {
			proj.dropID = true
			continue
		}
		want := -1
		if on {
			want = 1
		}
		if mode == 0 {
			mode = want
		} else if mode != want {
			return nil, fmt.Errorf("query: projection cannot mix inclusion and exclusion (field %q)", k)
		}
		proj.paths = append(proj.paths, k)
	}
	if mode == 0 {
		// Only {_id: 0}: treat as exclusion of _id alone.
		mode = -1
	}
	proj.include = mode == 1
	return proj, nil
}

// MustCompileProjection panics on error.
func MustCompileProjection(p document.D) *Projection {
	c, err := CompileProjection(p)
	if err != nil {
		panic(err)
	}
	return c
}

// Apply returns a new document containing the projected fields of doc.
// The input document is never mutated.
func (p *Projection) Apply(doc document.D) document.D {
	if p == nil {
		return doc.Copy()
	}
	if p.include {
		out := document.New()
		if !p.dropID {
			if id, ok := doc["_id"]; ok {
				out["_id"] = id
			}
		}
		for _, path := range p.paths {
			if v, ok := doc.Get(path); ok {
				// Deep-copy through the normalizer-free copy path by
				// setting into a fresh doc.
				if err := out.Set(path, copyProj(v)); err != nil {
					continue
				}
			}
		}
		return out
	}
	out := doc.Copy()
	for _, path := range p.paths {
		out.Unset(path)
	}
	if p.dropID {
		delete(out, "_id")
	}
	return out
}

func copyProj(v any) any {
	switch x := v.(type) {
	case map[string]any:
		return map[string]any(document.D(x).Copy())
	case []any:
		out := make([]any, len(x))
		for i, el := range x {
			out[i] = copyProj(el)
		}
		return out
	default:
		return x
	}
}

func projFlag(v any) (bool, error) {
	switch x := v.(type) {
	case bool:
		return x, nil
	case int64:
		return x != 0, nil
	case float64:
		return x != 0, nil
	}
	return false, fmt.Errorf("expected 0/1/bool, got %T", v)
}

// SortKey is one component of a sort specification.
type SortKey struct {
	Path string
	Desc bool
}

// ParseSort converts a MongoDB-style sort document (field: 1 / -1) given
// as an ordered slice of "field" or "-field" strings into sort keys.
// The slice form is used because Go maps do not preserve order.
func ParseSort(spec []string) ([]SortKey, error) {
	keys := make([]SortKey, 0, len(spec))
	for _, s := range spec {
		if s == "" || s == "-" {
			return nil, fmt.Errorf("query: empty sort field")
		}
		if strings.HasPrefix(s, "-") {
			keys = append(keys, SortKey{Path: s[1:], Desc: true})
		} else {
			keys = append(keys, SortKey{Path: s})
		}
	}
	return keys, nil
}

// MergeKeys is the sort that partial results of one read are merged on:
// the parsed spec, or _id ascending when the spec is empty, so every read
// has an order to merge on.
func MergeKeys(spec []string) ([]SortKey, error) {
	keys, err := ParseSort(spec)
	if err != nil || len(keys) > 0 {
		return keys, err
	}
	return []SortKey{{Path: "_id"}}, nil
}

// SortDocs sorts docs in place by the given keys using the total order of
// document.Compare. Missing fields sort before present ones (like BSON
// null ordering). The sort is stable. Each document's sort values are
// read once (SortValues), and the sort compares those.
func SortDocs(docs []document.D, keys []SortKey) {
	if len(keys) == 0 || len(docs) < 2 {
		return
	}
	type row struct {
		doc  document.D
		vals []any
	}
	rows := make([]row, len(docs))
	vals := make([]any, 0, len(docs)*len(keys))
	for i, d := range docs {
		n := len(vals)
		vals = SortValues(vals, d, keys)
		rows[i] = row{d, vals[n:len(vals):len(vals)]}
	}
	slices.SortStableFunc(rows, func(a, b row) int { return CompareSortValues(a.vals, b.vals, keys) })
	for i := range rows {
		docs[i] = rows[i].doc
	}
}

// SortValues appends to dst the values CompareByKeys compares for d, in
// key order: nil for a missing field.
func SortValues(dst []any, d document.D, keys []SortKey) []any {
	for _, k := range keys {
		v, _ := d.Get(k.Path)
		dst = append(dst, v)
	}
	return dst
}

// CompareSortValues compares two rows' SortValues under the keys'
// directions: CompareByKeys of the documents they were read from.
func CompareSortValues(a, b []any, keys []SortKey) int {
	for i, k := range keys {
		if c := document.Compare(a[i], b[i]); c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// CompareByKeys compares two documents under a sort specification.
func CompareByKeys(a, b document.D, keys []SortKey) int {
	for _, k := range keys {
		va, _ := a.Get(k.Path)
		vb, _ := b.Get(k.Path)
		c := document.Compare(va, vb)
		if c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}
