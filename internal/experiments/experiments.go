// Package experiments regenerates every table and figure of the paper's
// evaluation from the reproduction's own pipeline. Each function returns
// a printable result; cmd/mpbench renders them and the root benchmarks
// time them. DESIGN.md maps each experiment to the modules involved;
// EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"matproj/internal/analysis"
	"matproj/internal/builder"
	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/mapreduce"
	"matproj/internal/pipeline"
	"matproj/internal/stats"
	"matproj/internal/webload"
)

// Scale controls how big each experiment runs. Tests use Small; mpbench
// defaults to Full.
type Scale struct {
	Materials int // pipeline size for Table I / Fig 2 / Fig 5
	Queries   int // Fig 5 replay length
	MRDocs    int // documents in the MapReduce comparison
	Batteries int // frameworks screened for Fig 1
}

// Small is the quick-test scale.
var Small = Scale{Materials: 30, Queries: 300, MRDocs: 2000, Batteries: 30}

// Full is the report scale used by mpbench.
var Full = Scale{Materials: 200, Queries: 3315, MRDocs: 20000, Batteries: 150}

// --- Table I ------------------------------------------------------------

// TableIRow characterizes one collection's document structure.
type TableIRow struct {
	Collection string
	Stats      document.Stats
}

// TableI builds a real deployment and measures the structural complexity
// of the paper's four collections: battery prototypes, MPS, materials,
// and tasks. The paper's ordering (tasks deepest and largest, then
// materials, then MPS, then battery prototypes) must reproduce.
func TableI(sc Scale) ([]TableIRow, error) {
	d, err := pipeline.Build(pipelineConfig(sc))
	if err != nil {
		return nil, err
	}
	collections := []struct {
		label string
		name  string
	}{
		{"Battery prototypes", "batteries"},
		{"Materials Project Source (MPS)", "mps"},
		{"Materials", "materials"},
		{"Tasks", "tasks"},
	}
	var rows []TableIRow
	for _, c := range collections {
		docs, err := d.Store.C(c.name).FindAll(nil, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TableIRow{Collection: c.label, Stats: document.MeasureAll(docs)})
	}
	return rows, nil
}

// RenderTableI prints rows in the paper's Table I format.
func RenderTableI(w io.Writer, rows []TableIRow) {
	fmt.Fprintf(w, "TABLE I: Complexity and structure of selected collections\n")
	fmt.Fprintf(w, "%-34s %8s %7s %11s\n", "Collection", "Nodes", "Depth", "Mean depth")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %8d %7d %11.1f\n", r.Collection, r.Stats.Nodes, r.Stats.Depth, r.Stats.MeanDepth)
	}
}

// --- Fig. 1 -------------------------------------------------------------

// Fig1Result holds the screened candidates and the known-materials band.
type Fig1Result struct {
	Candidates []analysis.BatteryCandidate
	Known      []analysis.BatteryCandidate
}

// Fig1 screens synthetic battery frameworks for voltage and capacity.
func Fig1(sc Scale) (*Fig1Result, error) {
	cands, err := pipeline.BatteryScreen(2012, sc.Batteries)
	if err != nil {
		return nil, err
	}
	return &Fig1Result{Candidates: cands, Known: analysis.KnownElectrodes()}, nil
}

// RenderFig1 prints the scatter series plus an ASCII plot.
func RenderFig1(w io.Writer, r *Fig1Result) {
	fmt.Fprintf(w, "Fig. 1: Battery materials screened (voltage vs capacity)\n")
	fmt.Fprintf(w, "# series: candidates (%d points), known (%d points)\n", len(r.Candidates), len(r.Known))
	fmt.Fprintf(w, "%-18s %-4s %9s %12s %14s\n", "formula", "ion", "V (V)", "C (mAh/g)", "E (Wh/kg)")
	for _, c := range r.Candidates {
		fmt.Fprintf(w, "%-18s %-4s %9.2f %12.1f %14.1f\n", c.Formula, c.Ion, c.Voltage, c.Capacity, c.SpecificEnergy)
	}
	fmt.Fprintln(w, "# known materials band:")
	for _, c := range r.Known {
		fmt.Fprintf(w, "%-18s %-4s %9.2f %12.1f %14.1f\n", c.Formula, c.Ion, c.Voltage, c.Capacity, c.SpecificEnergy)
	}
	fmt.Fprint(w, asciiScatter(r))
}

// asciiScatter draws candidates (.) and known materials (K) on a
// voltage/capacity grid.
func asciiScatter(r *Fig1Result) string {
	const rows, cols = 16, 60
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	plot := func(v, c float64, ch byte) {
		// voltage 0-6 V on y, capacity 0-600 mAh/g on x.
		y := rows - 1 - int(v/6*float64(rows))
		x := int(c / 600 * float64(cols))
		if y < 0 {
			y = 0
		}
		if y >= rows {
			y = rows - 1
		}
		if x < 0 {
			x = 0
		}
		if x >= cols {
			x = cols - 1
		}
		grid[y][x] = ch
	}
	for _, c := range r.Candidates {
		plot(c.Voltage, c.Capacity, '.')
	}
	for _, c := range r.Known {
		plot(c.Voltage, c.Capacity, 'K')
	}
	var b strings.Builder
	b.WriteString("V(6..0) | capacity 0..600 mAh/g  ('.'=candidate, 'K'=known)\n")
	for _, row := range grid {
		b.WriteString("|" + string(row) + "|\n")
	}
	return b.String()
}

// --- Fig. 2 -------------------------------------------------------------

// Fig2Result shows the one datastore serving its four roles.
type Fig2Result struct {
	WorkflowOps     uint64 // parallel computation: engine claims/updates
	AnalyticsGroups int    // data analytics: MapReduce groups computed
	VVChecks        int    // data V&V: checks run
	VVViolations    int
	WebQueries      int // dissemination: queries served
	WebRecords      int
	Collections     []string
}

// Fig2 builds one deployment and exercises all four architectural roles
// against the same store.
func Fig2(sc Scale) (*Fig2Result, error) {
	d, err := pipeline.Build(pipelineConfig(sc))
	if err != nil {
		return nil, err
	}
	res := &Fig2Result{}

	// Role 1 (parallel computation) already ran during Build; its
	// footprint is the profiler ops against engines/tasks.
	ops, _ := d.Store.Profiler().Totals()
	res.WorkflowOps = ops

	// Role 2: analytics — group tasks by formula via MapReduce.
	groups, err := mapreduce.RunCollection(d.Store.C("tasks"), nil,
		func(t document.D, emit func(string, any)) {
			if f := t.GetString("result.formula"); f != "" {
				emit(f, int64(1))
			}
		},
		func(_ string, vs []any) any {
			var n int64
			for _, v := range vs {
				i, _ := v.(int64)
				n += i
			}
			return n
		}, 0)
	if err != nil {
		return nil, err
	}
	res.AnalyticsGroups = len(groups)

	// Role 3: V&V.
	runner := &builder.Runner{Store: d.Store}
	checks := builder.StandardChecks(d.Store)
	violations, err := runner.RunChecks(checks)
	if err != nil {
		return nil, err
	}
	res.VVChecks = len(checks)
	res.VVViolations = len(violations)

	// Role 4: dissemination — replay a web workload.
	gen, err := webload.NewGenerator(7, d.Store.C("materials"))
	if err != nil {
		return nil, err
	}
	samples, records, err := webload.Replay(gen, d.Engine, "materials", sc.Queries/3)
	if err != nil {
		return nil, err
	}
	res.WebQueries = len(samples)
	res.WebRecords = records
	res.Collections = d.Store.Collections()
	return res, nil
}

// RenderFig2 prints the four-role summary.
func RenderFig2(w io.Writer, r *Fig2Result) {
	fmt.Fprintf(w, "Fig. 2: one datastore serving four roles\n")
	fmt.Fprintf(w, "  collections in the single store : %v\n", r.Collections)
	fmt.Fprintf(w, "  [parallel computation] store ops : %d\n", r.WorkflowOps)
	fmt.Fprintf(w, "  [data analytics]  MR groups      : %d\n", r.AnalyticsGroups)
	fmt.Fprintf(w, "  [data V&V]        checks run     : %d (violations: %d)\n", r.VVChecks, r.VVViolations)
	fmt.Fprintf(w, "  [dissemination]   queries served : %d (records: %d)\n", r.WebQueries, r.WebRecords)
}

// --- Fig. 5 -------------------------------------------------------------

// Fig5Result holds the replayed query-latency distribution.
type Fig5Result struct {
	Summary    stats.Summary // milliseconds
	Histogram  *stats.Histogram
	TimeSeries []webload.Sample
	Records    int
}

// Fig5 builds a deployment and replays a portal workload, measuring
// per-query latency.
func Fig5(sc Scale) (*Fig5Result, error) {
	d, err := pipeline.Build(pipelineConfig(sc))
	if err != nil {
		return nil, err
	}
	gen, err := webload.NewGenerator(2012, d.Store.C("materials"))
	if err != nil {
		return nil, err
	}
	samples, records, err := webload.Replay(gen, d.Engine, "materials", sc.Queries)
	if err != nil {
		return nil, err
	}
	lat := make([]time.Duration, len(samples))
	for i, s := range samples {
		lat[i] = s.Latency
	}
	ms := stats.DurationsToMillis(lat)
	hist := stats.NewHistogram(0.001, 1000, 12)
	for _, v := range ms {
		hist.Add(v)
	}
	return &Fig5Result{
		Summary:    stats.Summarize(ms),
		Histogram:  hist,
		TimeSeries: samples,
		Records:    records,
	}, nil
}

// RenderFig5 prints the histogram and the time-series inset.
func RenderFig5(w io.Writer, r *Fig5Result) {
	fmt.Fprintf(w, "Fig. 5: query latency histogram (%d queries, %d records returned)\n", r.Summary.N, r.Records)
	fmt.Fprintf(w, "  mean %.3f ms  p50 %.3f ms  p90 %.3f ms  p99 %.3f ms  max %.3f ms\n",
		r.Summary.Mean, r.Summary.P50, r.Summary.P90, r.Summary.P99, r.Summary.Max)
	fmt.Fprint(w, r.Histogram.Render("ms", 48))
	fmt.Fprintln(w, "inset: time series (last 40 queries, ms):")
	tail := r.TimeSeries
	if len(tail) > 40 {
		tail = tail[len(tail)-40:]
	}
	for _, s := range tail {
		fmt.Fprintf(w, "  q%05d %-9s %8.3f\n", s.Seq, s.Kind, float64(s.Latency)/float64(time.Millisecond))
	}
}

// --- §IV-B2: built-in vs parallel MapReduce ------------------------------

// MRRow is one row of the MapReduce comparison.
type MRRow struct {
	Docs       int
	Workers    int
	BuiltinMs  float64
	ParallelMs float64
	Speedup    float64
}

// MapReduceComparison times the same grouping job (tasks → best result
// per material) on the built-in single-threaded engine and the parallel
// engine across worker counts.
func MapReduceComparison(sc Scale, workerCounts []int) ([]MRRow, error) {
	store := datastore.MustOpenMemory()
	tasks := store.C("tasks")
	for i := 0; i < sc.MRDocs; i++ {
		_, err := tasks.Insert(document.D{
			"state": "successful",
			"stage": map[string]any{"structure_id": fmt.Sprintf("s%05d", i%(sc.MRDocs/8+1))},
			"result": map[string]any{
				"mps_id":          fmt.Sprintf("mps-%05d", i%(sc.MRDocs/8+1)),
				"final_energy":    -float64(i%37) - 1,
				"energy_per_atom": -1.5,
				"formula":         "Fe2O3",
				"functional":      "GGA",
			},
		})
		if err != nil {
			return nil, err
		}
	}
	mapper := func(t document.D, emit func(string, any)) {
		if t.GetString("state") != "successful" {
			return
		}
		e, _ := t.GetFloat("result.final_energy")
		emit(t.GetString("stage.structure_id"), e)
	}
	reducer := func(_ string, vs []any) any {
		best, _ := document.AsFloat(vs[0])
		for _, v := range vs[1:] {
			f, _ := document.AsFloat(v)
			if f < best {
				best = f
			}
		}
		return best
	}

	start := time.Now()
	if _, err := mapreduce.Builtin(tasks, nil, mapper, reducer); err != nil {
		return nil, err
	}
	builtinMs := float64(time.Since(start)) / float64(time.Millisecond)

	var rows []MRRow
	for _, wkrs := range workerCounts {
		start = time.Now()
		if _, err := mapreduce.RunCollection(tasks, nil, mapper, reducer, wkrs); err != nil {
			return nil, err
		}
		parMs := float64(time.Since(start)) / float64(time.Millisecond)
		speedup := 0.0
		if parMs > 0 {
			speedup = builtinMs / parMs
		}
		rows = append(rows, MRRow{Docs: sc.MRDocs, Workers: wkrs, BuiltinMs: builtinMs, ParallelMs: parMs, Speedup: speedup})
	}
	return rows, nil
}

// RenderMR prints the comparison table.
func RenderMR(w io.Writer, rows []MRRow) {
	fmt.Fprintf(w, "§IV-B2: built-in (single-threaded) vs parallel MapReduce\n")
	fmt.Fprintf(w, "%8s %8s %12s %12s %9s\n", "docs", "workers", "builtin ms", "parallel ms", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %8d %12.2f %12.2f %8.1fx\n", r.Docs, r.Workers, r.BuiltinMs, r.ParallelMs, r.Speedup)
	}
}

// --- Week stats (§III intro numbers) -------------------------------------

// WeekStats replays a "week" of traffic and reports the paper-style
// accounting: distinct queries and total records returned.
type WeekStatsResult struct {
	Queries int
	Records int
}

// WeekStats reproduces the bookkeeping behind "3315 distinct queries
// returning a total of 12,951,099 records".
func WeekStats(sc Scale) (*WeekStatsResult, error) {
	d, err := pipeline.Build(pipelineConfig(sc))
	if err != nil {
		return nil, err
	}
	gen, err := webload.NewGenerator(820, d.Store.C("materials"))
	if err != nil {
		return nil, err
	}
	samples, records, err := webload.Replay(gen, d.Engine, "materials", sc.Queries)
	if err != nil {
		return nil, err
	}
	return &WeekStatsResult{Queries: len(samples), Records: records}, nil
}

// --- helpers --------------------------------------------------------------

func pipelineConfig(sc Scale) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.NMaterials = sc.Materials
	return cfg
}

// SortedKinds renders a kind-count map deterministically (helper for
// mpbench output).
func SortedKinds(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}
