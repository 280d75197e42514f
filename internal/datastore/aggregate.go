package datastore

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"matproj/internal/document"
	"matproj/internal/query"
)

// Aggregation pipelines: the paper notes that "both the web interface
// and workflow components perform complex ad-hoc queries over these
// structures". This file implements the MongoDB aggregation stages those
// ad-hoc queries use: $match, $project, $group, $sort, $limit, $skip,
// $unwind, and $count, with the standard accumulator operators.

// Aggregate runs a pipeline over the collection and returns the
// resulting documents. Each stage is a single-key document naming the
// stage, e.g. {"$match": {...}}.
func (c *Collection) Aggregate(pipeline []document.D) ([]document.D, error) {
	// Stage 1 ($match at the head) can use indexes via Find.
	var docs []document.D
	start := 0
	if len(pipeline) > 0 {
		if m, ok := stageBody(pipeline[0], "$match"); ok {
			var err error
			docs, err = c.FindAll(m, nil)
			if err != nil {
				return nil, err
			}
			start = 1
		}
	}
	if start == 0 {
		var err error
		docs, err = c.FindAll(nil, nil)
		if err != nil {
			return nil, err
		}
	}
	return RunPipeline(docs, pipeline[start:])
}

// AggregatePartial runs a pipeline whose last stage is splittable (see
// Splittable) and returns that stage's partial state rows (RunPartial)
// instead of its result. A router runs it on every shard and folds the
// rows with CombinePartial.
func (c *Collection) AggregatePartial(pipeline []document.D) ([]document.D, error) {
	if len(pipeline) == 0 {
		return nil, fmt.Errorf("datastore: partial aggregation needs a stage")
	}
	last := len(pipeline) - 1
	docs, err := c.Aggregate(pipeline[:last])
	if err != nil {
		return nil, err
	}
	out, err := RunPartial(docs, pipeline[last])
	if err != nil {
		return nil, fmt.Errorf("datastore: stage %d: %w", last, err)
	}
	return out, nil
}

// RunPipeline applies aggregation stages to an in-memory document slice
// (exported so pipelines compose with MapReduce output and shard
// mergers).
func RunPipeline(docs []document.D, stages []document.D) ([]document.D, error) {
	var err error
	for i, stage := range stages {
		if len(stage) != 1 {
			return nil, fmt.Errorf("datastore: aggregation stage %d must have exactly one operator, got %d", i, len(stage))
		}
		for op, body := range stage {
			switch op {
			case "$match":
				docs, err = stageMatch(docs, body)
			case "$project":
				docs, err = stageProject(docs, body)
			case "$group":
				docs, err = stageGroup(docs, body)
			case "$sort":
				docs, err = stageSort(docs, body)
			case "$limit":
				docs, err = stageLimit(docs, body)
			case "$skip":
				docs, err = stageSkip(docs, body)
			case "$unwind":
				docs, err = stageUnwind(docs, body)
			case "$count":
				docs, err = stageCount(docs, body)
			default:
				return nil, fmt.Errorf("datastore: unknown aggregation stage %q", op)
			}
			if err != nil {
				return nil, fmt.Errorf("datastore: stage %d (%s): %w", i, op, err)
			}
		}
	}
	return docs, nil
}

func stageBody(stage document.D, name string) (document.D, bool) {
	if len(stage) != 1 {
		return nil, false
	}
	v, ok := stage[name]
	if !ok {
		return nil, false
	}
	switch m := v.(type) {
	case map[string]any:
		return document.D(m), true
	case document.D:
		return m, true
	}
	return nil, false
}

func asDoc(v any) (document.D, bool) {
	switch m := v.(type) {
	case map[string]any:
		return document.D(m), true
	case document.D:
		return m, true
	}
	return nil, false
}

func stageMatch(docs []document.D, body any) ([]document.D, error) {
	m, ok := asDoc(body)
	if !ok {
		return nil, fmt.Errorf("$match requires a document")
	}
	flt, err := query.Compile(m)
	if err != nil {
		return nil, err
	}
	out := docs[:0:0]
	for _, d := range docs {
		if flt.Matches(d) {
			out = append(out, d)
		}
	}
	return out, nil
}

func stageProject(docs []document.D, body any) ([]document.D, error) {
	m, ok := asDoc(body)
	if !ok {
		return nil, fmt.Errorf("$project requires a document")
	}
	// Split into plain include/exclude flags and computed fields
	// ("$path" references and expression documents).
	flags := document.D{}
	computed := map[string]any{}
	for k, v := range m {
		switch x := v.(type) {
		case string:
			if strings.HasPrefix(x, "$") {
				computed[k] = x
				continue
			}
			return nil, fmt.Errorf("$project field %q: string value must be a $path reference", k)
		case map[string]any, document.D:
			computed[k] = v
		default:
			flags[k] = v
		}
	}
	var proj *query.Projection
	if len(flags) > 0 {
		var err error
		proj, err = query.CompileProjection(flags)
		if err != nil {
			return nil, err
		}
	}
	out := make([]document.D, 0, len(docs))
	for _, d := range docs {
		var nd document.D
		if proj != nil {
			nd = proj.Apply(d)
		} else {
			nd = document.D{}
			if id, ok := d["_id"]; ok {
				nd["_id"] = id
			}
		}
		for k, expr := range computed {
			v, err := evalExpr(expr, d)
			if err != nil {
				return nil, fmt.Errorf("field %q: %w", k, err)
			}
			if err := nd.Set(k, v); err != nil {
				return nil, err
			}
		}
		out = append(out, nd)
	}
	return out, nil
}

// evalExpr evaluates an aggregation expression against a document:
// "$path" field references, literals, and arithmetic/array operators.
func evalExpr(expr any, d document.D) (any, error) {
	switch x := expr.(type) {
	case string:
		if strings.HasPrefix(x, "$") {
			v, _ := d.Get(x[1:])
			return v, nil
		}
		return x, nil
	case map[string]any:
		return evalOpExpr(document.D(x), d)
	case document.D:
		return evalOpExpr(x, d)
	default:
		return x, nil
	}
}

func evalOpExpr(m document.D, d document.D) (any, error) {
	if len(m) != 1 {
		return nil, fmt.Errorf("expression must have exactly one operator: %v", m)
	}
	for op, arg := range m {
		switch op {
		case "$add", "$subtract", "$multiply", "$divide":
			args, err := evalNumericArgs(arg, d)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", op, err)
			}
			return applyArith(op, args)
		case "$abs":
			v, err := evalExpr(arg, d)
			if err != nil {
				return nil, err
			}
			f, ok := document.AsFloat(v)
			if !ok {
				return nil, fmt.Errorf("$abs: non-numeric %v", v)
			}
			return math.Abs(f), nil
		case "$size":
			v, err := evalExpr(arg, d)
			if err != nil {
				return nil, err
			}
			arr, ok := v.([]any)
			if !ok {
				return nil, fmt.Errorf("$size: not an array")
			}
			return int64(len(arr)), nil
		case "$concat":
			parts, ok := arg.([]any)
			if !ok {
				return nil, fmt.Errorf("$concat requires an array")
			}
			var b strings.Builder
			for _, p := range parts {
				v, err := evalExpr(p, d)
				if err != nil {
					return nil, err
				}
				s, ok := v.(string)
				if !ok {
					return nil, fmt.Errorf("$concat: non-string %v", v)
				}
				b.WriteString(s)
			}
			return b.String(), nil
		case "$literal":
			return arg, nil
		default:
			return nil, fmt.Errorf("unknown expression operator %q", op)
		}
	}
	return nil, nil
}

func evalNumericArgs(arg any, d document.D) ([]float64, error) {
	arr, ok := arg.([]any)
	if !ok {
		return nil, fmt.Errorf("requires an array of operands")
	}
	out := make([]float64, len(arr))
	for i, a := range arr {
		v, err := evalExpr(a, d)
		if err != nil {
			return nil, err
		}
		f, ok := document.AsFloat(v)
		if !ok {
			return nil, fmt.Errorf("operand %d is not numeric: %v", i, v)
		}
		out[i] = f
	}
	return out, nil
}

func applyArith(op string, args []float64) (any, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("%s: no operands", op)
	}
	switch op {
	case "$add":
		s := 0.0
		for _, a := range args {
			s += a
		}
		return s, nil
	case "$multiply":
		s := 1.0
		for _, a := range args {
			s *= a
		}
		return s, nil
	case "$subtract":
		if len(args) != 2 {
			return nil, fmt.Errorf("$subtract needs exactly 2 operands")
		}
		return args[0] - args[1], nil
	case "$divide":
		if len(args) != 2 {
			return nil, fmt.Errorf("$divide needs exactly 2 operands")
		}
		if args[1] == 0 {
			return nil, fmt.Errorf("$divide by zero")
		}
		return args[0] / args[1], nil
	}
	return nil, fmt.Errorf("unknown arithmetic %q", op)
}

// groupAccumulator folds values for one group key. Its state can also
// leave the process: export renders it as a state document,
// importAccumulator reads one back, and merge folds another
// accumulator of the same operator into this one. That is the
// partial/combine contract a routed $group runs on (RunPartial,
// CombinePartial); $group itself is accumulate then finalize.
type groupAccumulator struct {
	op   string
	expr any

	sum    float64
	count  int64
	min    any
	max    any
	first  any
	last   any
	seen   bool
	pushed []any
	set    []any
}

func (a *groupAccumulator) add(d document.D) error {
	if a.op == "$count" {
		// $count ignores its argument ({} by convention).
		a.count++
		return nil
	}
	v, err := evalExpr(a.expr, d)
	if err != nil {
		return err
	}
	switch a.op {
	case "$sum":
		if f, ok := document.AsFloat(v); ok {
			a.sum += f
		}
		a.count++
	case "$avg":
		if f, ok := document.AsFloat(v); ok {
			a.sum += f
			a.count++
		}
	case "$min":
		if v == nil {
			return nil
		}
		if !a.seen || document.Compare(v, a.min) < 0 {
			a.min = v
			a.seen = true
		}
	case "$max":
		if v == nil {
			return nil
		}
		if !a.seen || document.Compare(v, a.max) > 0 {
			a.max = v
			a.seen = true
		}
	case "$first":
		if !a.seen {
			a.first = v
			a.seen = true
		}
	case "$last":
		a.last = v
		a.seen = true
	case "$push":
		a.pushed = append(a.pushed, v)
	case "$addToSet":
		for _, el := range a.set {
			if document.Equal(el, v) {
				return nil
			}
		}
		a.set = append(a.set, v)
	}
	return nil
}

func (a *groupAccumulator) result() any {
	switch a.op {
	case "$sum":
		// Integral sums report as int64 only when they fit: the
		// conversion of ±Inf or of a magnitude ≥ 2^63 is undefined.
		if a.sum == math.Trunc(a.sum) && a.sum >= -(1<<63) && a.sum < 1<<63 {
			return int64(a.sum)
		}
		return a.sum
	case "$avg":
		if a.count == 0 {
			return nil
		}
		return a.sum / float64(a.count)
	case "$min":
		return a.min
	case "$max":
		return a.max
	case "$first":
		return a.first
	case "$last":
		return a.last
	case "$push":
		if a.pushed == nil {
			return []any{}
		}
		return a.pushed
	case "$addToSet":
		if a.set == nil {
			return []any{}
		}
		return a.set
	case "$count":
		return a.count
	}
	return nil
}

// splittableOps are the accumulators whose state merges independently
// of document order.
var splittableOps = map[string]bool{"$sum": true, "$avg": true, "$min": true, "$max": true, "$count": true}

// export renders a splittable accumulator's state: "n" is the count,
// "s" the running sum ($sum, $avg; a string such as "+Inf" once it has
// overflowed, since JSON has no infinities) and "v" the extreme value
// ($min, $max; absent until a non-null value arrives).
func (a *groupAccumulator) export() document.D {
	st := document.D{"n": a.count}
	switch a.op {
	case "$sum", "$avg":
		st["s"] = a.sum
		if math.IsInf(a.sum, 0) || math.IsNaN(a.sum) {
			st["s"] = strconv.FormatFloat(a.sum, 'g', -1, 64)
		}
	case "$min":
		if a.seen {
			st["v"] = a.min
		}
	case "$max":
		if a.seen {
			st["v"] = a.max
		}
	}
	return st
}

// importAccumulator rebuilds an op accumulator from a state document
// written by export.
func importAccumulator(op string, state any) (*groupAccumulator, error) {
	st, ok := asDoc(state)
	if !ok {
		return nil, fmt.Errorf("%s state must be a document, got %T", op, state)
	}
	a := &groupAccumulator{op: op}
	if a.count, ok = st["n"].(int64); !ok {
		return nil, fmt.Errorf("%s state: count must be an integer, got %T", op, st["n"])
	}
	switch op {
	case "$sum", "$avg":
		if a.sum, ok = document.AsFloat(st["s"]); ok {
			break
		}
		str, _ := st["s"].(string)
		var err error
		if a.sum, err = strconv.ParseFloat(str, 64); err != nil {
			return nil, fmt.Errorf("%s state: sum must be a number, got %T", op, st["s"])
		}
	case "$min", "$max":
		if v := st["v"]; v != nil {
			a.min, a.max, a.seen = v, v, true
		}
	}
	return a, nil
}

// merge folds b, an accumulator of the same operator, into a: the
// result is as if a had also seen b's documents.
func (a *groupAccumulator) merge(b *groupAccumulator) {
	a.count += b.count
	a.sum += b.sum
	if !b.seen {
		return
	}
	switch a.op {
	case "$min":
		if !a.seen || document.Compare(b.min, a.min) < 0 {
			a.min, a.seen = b.min, true
		}
	case "$max":
		if !a.seen || document.Compare(b.max, a.max) > 0 {
			a.max, a.seen = b.max, true
		}
	}
}

// groupField is one output field of a $group: name ← op(expr).
type groupField struct {
	name string
	op   string
	expr any
}

// groupTable holds one $group's accumulators, one set per group key.
// Keys are identified by their JSON rendering, which also fixes the
// output order.
type groupTable struct {
	idExpr any
	fields []groupField // in name order
	groups map[string]*groupState
}

type groupState struct {
	key  any
	accs []*groupAccumulator
}

func newGroupTable(body any) (*groupTable, error) {
	spec, ok := asDoc(body)
	if !ok {
		return nil, fmt.Errorf("$group requires a document")
	}
	idExpr, hasID := spec["_id"]
	if !hasID {
		return nil, fmt.Errorf("$group requires an _id expression")
	}
	t := &groupTable{idExpr: idExpr, groups: map[string]*groupState{}}
	names := make([]string, 0, len(spec))
	for name := range spec {
		if name != "_id" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		accSpec, ok := asDoc(spec[name])
		if !ok || len(accSpec) != 1 {
			return nil, fmt.Errorf("$group field %q must be {<accumulator>: <expr>}", name)
		}
		for op, expr := range accSpec {
			switch op {
			case "$sum", "$avg", "$min", "$max", "$first", "$last", "$push", "$addToSet", "$count":
			default:
				return nil, fmt.Errorf("$group field %q: unknown accumulator %q", name, op)
			}
			t.fields = append(t.fields, groupField{name: name, op: op, expr: expr})
		}
	}
	return t, nil
}

// slot returns key's group, creating it on first sight.
func (t *groupTable) slot(key any) (*groupState, error) {
	kb, err := document.D{"k": key}.ToJSON()
	if err != nil {
		return nil, err
	}
	k := string(kb)
	g, ok := t.groups[k]
	if !ok {
		g = &groupState{key: key}
		for _, f := range t.fields {
			g.accs = append(g.accs, &groupAccumulator{op: f.op, expr: f.expr})
		}
		t.groups[k] = g
	}
	return g, nil
}

// accumulate folds docs into the table.
func (t *groupTable) accumulate(docs []document.D) error {
	for _, d := range docs {
		key, err := evalExpr(t.idExpr, d)
		if err != nil {
			return err
		}
		g, err := t.slot(key)
		if err != nil {
			return err
		}
		for _, acc := range g.accs {
			if err := acc.add(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// rows emits one {"_id": key, <field>: out(acc)} row per group, in
// sorted-key order.
func (t *groupTable) rows(out func(*groupAccumulator) any) []document.D {
	keys := make([]string, 0, len(t.groups))
	for k := range t.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]document.D, 0, len(keys))
	for _, k := range keys {
		g := t.groups[k]
		nd := document.D{"_id": g.key}
		for i, f := range t.fields {
			nd[f.name] = out(g.accs[i])
		}
		rows = append(rows, nd)
	}
	return rows
}

func finalize(a *groupAccumulator) any { return document.Normalize(a.result()) }

func exportState(a *groupAccumulator) any { return a.export() }

func stageGroup(docs []document.D, body any) ([]document.D, error) {
	t, err := newGroupTable(body)
	if err != nil {
		return nil, err
	}
	if err := t.accumulate(docs); err != nil {
		return nil, err
	}
	return t.rows(finalize), nil
}

// Splittable reports whether a stage can run as partial state over
// disjoint parts of its input plus a combine: a $count, or a $group
// whose accumulators are all $sum, $avg, $min, $max or $count. The
// order-dependent accumulators ($first, $last, $push, $addToSet) are
// not splittable.
func Splittable(stage document.D) bool {
	if len(stage) != 1 {
		return false
	}
	if name, ok := stage["$count"].(string); ok {
		return name != ""
	}
	body, ok := stageBody(stage, "$group")
	if !ok {
		return false
	}
	t, err := newGroupTable(body)
	if err != nil {
		return false
	}
	for _, f := range t.fields {
		if !splittableOps[f.op] {
			return false
		}
	}
	return true
}

// RunPartial runs a splittable stage over one part of its input and
// returns the part's state rows: for $group, one {"_id": key, <field>:
// state} row per group key, where state is the accumulator's export
// ({"n": count, "s": sum} or {"n": count, "v": extreme}); for $count,
// one {"n": count} row.
func RunPartial(docs []document.D, stage document.D) ([]document.D, error) {
	if !Splittable(stage) {
		return nil, fmt.Errorf("datastore: stage %v cannot run as partial state", stage)
	}
	if _, ok := stage["$count"]; ok {
		a := &groupAccumulator{op: "$count", count: int64(len(docs))}
		return []document.D{a.export()}, nil
	}
	t, err := newGroupTable(stage["$group"])
	if err != nil {
		return nil, err
	}
	if err := t.accumulate(docs); err != nil {
		return nil, err
	}
	return t.rows(exportState), nil
}

// CombinePartial merges the state rows RunPartial produced for stage
// over disjoint parts and finalizes them. The result is the stage run
// over the union of the parts, rows in $group's sorted-key order.
func CombinePartial(stage document.D, states []document.D) ([]document.D, error) {
	if !Splittable(stage) {
		return nil, fmt.Errorf("datastore: stage %v cannot combine partial state", stage)
	}
	if name, ok := stage["$count"].(string); ok {
		total := &groupAccumulator{op: "$count"}
		for _, st := range states {
			a, err := importAccumulator("$count", st)
			if err != nil {
				return nil, err
			}
			total.merge(a)
		}
		return []document.D{{name: total.result()}}, nil
	}
	t, err := newGroupTable(stage["$group"])
	if err != nil {
		return nil, err
	}
	for _, row := range states {
		g, err := t.slot(row["_id"])
		if err != nil {
			return nil, err
		}
		for i, f := range t.fields {
			a, err := importAccumulator(f.op, row[f.name])
			if err != nil {
				return nil, fmt.Errorf("$group field %q: %w", f.name, err)
			}
			g.accs[i].merge(a)
		}
	}
	return t.rows(finalize), nil
}

func stageSort(docs []document.D, body any) ([]document.D, error) {
	spec, ok := asDoc(body)
	if !ok {
		return nil, fmt.Errorf("$sort requires a document")
	}
	// Deterministic multi-key order: fields sorted by name, since Go maps
	// are unordered. (Callers needing a specific precedence should chain
	// $sort stages, last-most-significant.)
	var keys []query.SortKey
	names := make([]string, 0, len(spec))
	for name := range spec {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dir, ok := document.AsFloat(spec[name])
		if !ok || (dir != 1 && dir != -1) {
			return nil, fmt.Errorf("$sort field %q must be 1 or -1", name)
		}
		keys = append(keys, query.SortKey{Path: name, Desc: dir == -1})
	}
	out := append([]document.D(nil), docs...)
	query.SortDocs(out, keys)
	return out, nil
}

func stageLimit(docs []document.D, body any) ([]document.D, error) {
	n, ok := document.AsFloat(body)
	if !ok || n < 0 {
		return nil, fmt.Errorf("$limit requires a non-negative number")
	}
	if int(n) < len(docs) {
		return docs[:int(n)], nil
	}
	return docs, nil
}

func stageSkip(docs []document.D, body any) ([]document.D, error) {
	n, ok := document.AsFloat(body)
	if !ok || n < 0 {
		return nil, fmt.Errorf("$skip requires a non-negative number")
	}
	if int(n) >= len(docs) {
		return nil, nil
	}
	return docs[int(n):], nil
}

func stageUnwind(docs []document.D, body any) ([]document.D, error) {
	path, ok := body.(string)
	if !ok || !strings.HasPrefix(path, "$") {
		return nil, fmt.Errorf("$unwind requires a $path string")
	}
	field := path[1:]
	var out []document.D
	for _, d := range docs {
		v, exists := d.Get(field)
		if !exists {
			continue
		}
		arr, isArr := v.([]any)
		if !isArr {
			out = append(out, d)
			continue
		}
		for _, el := range arr {
			nd := d.Copy()
			if err := nd.Set(field, el); err != nil {
				return nil, err
			}
			out = append(out, nd)
		}
	}
	return out, nil
}

func stageCount(docs []document.D, body any) ([]document.D, error) {
	name, ok := body.(string)
	if !ok || name == "" {
		return nil, fmt.Errorf("$count requires a field name")
	}
	return []document.D{{name: int64(len(docs))}}, nil
}
