// Package matproj's root benchmarks regenerate every table and figure of
// the paper (run `go test -bench=. -benchmem`) and time the ablations
// DESIGN.md calls out. Human-readable renderings of the same experiments
// come from `go run ./cmd/mpbench`.
package matproj

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"matproj/internal/cluster"
	"matproj/internal/datastore"
	"matproj/internal/dfs"
	"matproj/internal/dft"
	"matproj/internal/document"
	"matproj/internal/experiments"
	"matproj/internal/fireworks"
	"matproj/internal/icsd"
	"matproj/internal/mapreduce"
	"matproj/internal/obs"
	"matproj/internal/queryengine"
)

// benchScale keeps per-iteration work small enough for stable timing.
var benchScale = experiments.Small

// --- one benchmark per paper artifact --------------------------------------

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableI(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFig1Battery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Candidates)), "candidates")
	}
}

func BenchmarkFig2FourRoles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.WebQueries), "queries")
	}
}

func BenchmarkFig3Lifecycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		steps, err := experiments.Fig3(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(steps) != 6 {
			b.Fatal("incomplete lifecycle")
		}
	}
}

func BenchmarkFig4API(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if r.Status != 200 {
			b.Fatalf("status %d", r.Status)
		}
	}
}

func BenchmarkFig5QueryLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Summary.P50*1000, "p50-µs")
		b.ReportMetric(r.Summary.P99*1000, "p99-µs")
	}
}

func BenchmarkWeekStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.WeekStats(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Records), "records")
	}
}

func BenchmarkFireworksFeatures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.FireworksFeatures(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Reruns), "reruns")
		b.ReportMetric(float64(r.Duplicates), "dups")
	}
}

// --- §IV-B2: built-in vs parallel MapReduce --------------------------------

// mrFixture builds a tasks collection once per benchmark.
func mrFixture(b *testing.B, nDocs int) *datastore.Collection {
	b.Helper()
	store := datastore.MustOpenMemory()
	tasks := store.C("tasks")
	for i := 0; i < nDocs; i++ {
		_, err := tasks.Insert(document.D{
			"state":  "successful",
			"stage":  map[string]any{"structure_id": fmt.Sprintf("s%05d", i%(nDocs/8+1))},
			"result": map[string]any{"final_energy": -float64(i%37) - 1},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return tasks
}

func mrMapper(t document.D, emit func(string, any)) {
	e, _ := t.GetFloat("result.final_energy")
	emit(t.GetString("stage.structure_id"), e)
}

func mrReducer(_ string, vs []any) any {
	best, _ := document.AsFloat(vs[0])
	for _, v := range vs[1:] {
		if f, _ := document.AsFloat(v); f < best {
			best = f
		}
	}
	return best
}

// --- §IV-A1: task farming ----------------------------------------------

func BenchmarkTaskFarming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TaskFarm(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].Jobs), "farm-jobs")
		b.ReportMetric(float64(rows[1].Jobs), "single-jobs")
	}
}

// --- ablation 1: index vs full scan on the paper's example query -----------

// queryFixture seeds a collection for the §III-B2 job-selection query.
func queryFixture(b *testing.B, n int, indexed bool) *datastore.Collection {
	b.Helper()
	store := datastore.MustOpenMemory()
	queryFixtureStores[store.C("engines")] = store
	c := store.C("engines")
	combos := [][]any{
		{"Li", "O"}, {"Li", "Fe", "O"}, {"Na", "O"}, {"Fe", "O"}, {"Mg", "Si", "O"},
		{"Ca", "Ti", "O"}, {"K", "Cl"}, {"Na", "Cl"}, {"Zn", "S"}, {"Al", "O"},
		{"Cu", "O"}, {"Ni", "S"},
	}
	for i := 0; i < n; i++ {
		_, err := c.Insert(document.D{
			"elements":   combos[i%len(combos)],
			"nelectrons": int64(30 + i%400),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if indexed {
		c.EnsureOrderedIndex("elements")
		c.EnsureOrderedIndex("nelectrons")
	}
	return c
}

// queryFixtureStores lets benchmarks recover the store behind a fixture
// collection (for wiring a QueryEngine over the same data).
var queryFixtureStores = map[*datastore.Collection]*datastore.Store{}

func storeOf(c *datastore.Collection) *datastore.Store { return queryFixtureStores[c] }

var paperQuery = document.MustFromJSON(`{"elements": {"$all": ["Li", "O"]}, "nelectrons": {"$lte": 200}}`)

func BenchmarkPaperQueryFullScan(b *testing.B) {
	c := queryFixture(b, 20000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.FindAll(paperQuery, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaperQueryIndexed(b *testing.B) {
	c := queryFixture(b, 20000, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.FindAll(paperQuery, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation 2: duplicate detection on vs off -----------------------------

// dedupRun executes a duplicate-heavy workload and reports the virtual
// CPU-hours consumed.
func dedupRun(b *testing.B, useBinder bool) float64 {
	b.Helper()
	store := datastore.MustOpenMemory()
	pad := fireworks.NewLaunchPad(store, 5)
	fireworks.RegisterVASP(pad)
	mps := store.C("mps")
	var fws []fireworks.Firework
	for _, r := range icsd.Generate(icsd.Config{Seed: 5, DuplicateRate: 0.4}, 40) {
		mdoc := r.ToDoc()
		if _, err := mps.Insert(mdoc); err != nil {
			b.Fatal(err)
		}
		fw := fireworks.NewVASPFirework(mdoc, "relax", dft.DefaultParams(), 24*time.Hour)
		if !useBinder {
			fw.Binder = nil
		}
		fws = append(fws, fw)
	}
	if _, err := pad.AddWorkflow(fws); err != nil {
		b.Fatal(err)
	}
	r := &fireworks.Rocket{Pad: pad, Assembler: fireworks.NewVASPAssembler(store), WorkerID: "w"}
	if _, err := r.RunLocal(0); err != nil {
		b.Fatal(err)
	}
	tasks, err := store.C("tasks").FindAll(nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	var cpuSeconds float64
	for _, t := range tasks {
		rt, _ := t.GetFloat("runtime_s")
		cpuSeconds += rt
	}
	return cpuSeconds / 3600
}

func BenchmarkDedupBinderOn(b *testing.B) {
	var hours float64
	for i := 0; i < b.N; i++ {
		hours = dedupRun(b, true)
	}
	b.ReportMetric(hours, "virtual-cpu-h")
}

func BenchmarkDedupBinderOff(b *testing.B) {
	var hours float64
	for i := 0; i < b.N; i++ {
		hours = dedupRun(b, false)
	}
	b.ReportMetric(hours, "virtual-cpu-h")
}

// --- ablation 5: QueryEngine layer overhead --------------------------------

func BenchmarkRawCollectionFind(b *testing.B) {
	c := queryFixture(b, 5000, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.FindAll(paperQuery, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryEngineFind(b *testing.B) {
	// Same data distribution as BenchmarkRawCollectionFind so the two
	// numbers isolate the alias/sanitize layer's cost.
	c := queryFixture(b, 5000, true)
	eng := queryengine.New(storeOf(c))
	eng.AddAlias("engines", "els", "elements")
	aliased := document.MustFromJSON(`{"els": {"$all": ["Li", "O"]}, "nelectrons": {"$lte": 200}}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Find("bench", "engines", aliased, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks on the hot paths --------------------------------------

func BenchmarkInsert(b *testing.B) {
	c := datastore.MustOpenMemory().C("x")
	doc := document.MustFromJSON(`{"formula": "LiFePO4", "elements": ["Li","Fe","P","O"], "output": {"final_energy": -12.1}}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Insert(doc.Copy()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindAndModifyClaim(b *testing.B) {
	// Constant queue depth: each iteration claims one job and enqueues a
	// replacement, so the per-claim cost reflects a steady-state queue.
	const depth = 1000
	c := datastore.MustOpenMemory().C("engines")
	for i := 0; i < depth; i++ {
		if _, err := c.Insert(document.D{"state": "ready", "priority": int64(i % 10)}); err != nil {
			b.Fatal(err)
		}
	}
	c.EnsureOrderedIndex("state")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.FindAndModify(
			document.D{"state": "ready"},
			document.D{"$set": document.D{"state": "running"}},
			[]string{"-priority"}, true); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Insert(document.D{"state": "ready", "priority": int64(i % 10)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDFTRun(b *testing.B) {
	recs := icsd.Generate(icsd.Config{Seed: 8, DuplicateRate: 0}, 16)
	p := dft.DefaultParams()
	p.Potim = 0.2
	p.Algo = "Normal"
	p.NELM = 2000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dft.Run(recs[i%len(recs)].Structure, p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §IV-B2 continued: pre-staging to the DFS -------------------------------

func BenchmarkMapReduceStaged(b *testing.B) {
	store := datastore.MustOpenMemory()
	tasks := store.C("tasks")
	for i := 0; i < benchScale.MRDocs; i++ {
		if _, err := tasks.Insert(document.D{
			"state":  "successful",
			"stage":  map[string]any{"structure_id": fmt.Sprintf("s%05d", i%(benchScale.MRDocs/8+1))},
			"result": map[string]any{"final_energy": -float64(i%37) - 1},
		}); err != nil {
			b.Fatal(err)
		}
	}
	fs, err := dfs.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	set, err := fs.Stage(store, "tasks", nil, "bench", 1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dfs.RunStaged(set, mrMapper, mrReducer, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §IV-D2: sharded scatter-gather ------------------------------------------

// BenchmarkShardedQuery times an un-keyed range read scatter-gathered by
// the shipping cluster.Router over 1, 2 and 4 single-member shard groups
// on loopback httptest nodes, so it includes the wire encode/decode and
// the router's global re-merge. The result cache is off: every iteration
// reaches the nodes.
func BenchmarkShardedQuery(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var groups [][]string
			for gi := 0; gi < shards; gi++ {
				srv := httptest.NewServer(cluster.NewNode(fmt.Sprintf("node-%d", gi), datastore.MustOpenMemory(), nil))
				b.Cleanup(srv.Close)
				groups = append(groups, []string{srv.URL})
			}
			router, err := cluster.NewRouter(cluster.RouterOptions{Groups: groups})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(router.Close)
			docs := make([]document.D, 8000)
			for i := range docs {
				docs[i] = document.D{
					"nelectrons": int64(30 + i%400),
					"formula":    fmt.Sprintf("F%d", i),
				}
			}
			if _, err := router.InsertMany("materials", docs); err != nil {
				b.Fatal(err)
			}
			materials := router.C("materials")
			filter := document.MustFromJSON(`{"nelectrons": {"$lte": 200}}`)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := materials.FindAll(filter, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- observability-era core benchmarks ---------------------------------------

// BenchmarkFind times the full dissemination read path — QueryEngine over
// an indexed collection — with the metrics layer off and on, so the
// instrumentation overhead is a number, not a guess.
func BenchmarkFind(b *testing.B) {
	for _, instrumented := range []bool{false, true} {
		b.Run(fmt.Sprintf("obs=%v", instrumented), func(b *testing.B) {
			c := queryFixture(b, 5000, true)
			store := storeOf(c)
			eng := queryengine.New(store)
			if instrumented {
				reg := obs.NewRegistry()
				store.Observe(reg, nil)
				eng.Observe(reg, nil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Find("bench", "engines", paperQuery, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAggregate times the sanitized aggregation path end to end
// (QueryEngine stage whitelist + datastore pipeline executor).
func BenchmarkAggregate(b *testing.B) {
	store := datastore.MustOpenMemory()
	tasks := store.C("tasks")
	for i := 0; i < benchScale.MRDocs; i++ {
		if _, err := tasks.Insert(document.D{
			"state":  "successful",
			"stage":  map[string]any{"structure_id": fmt.Sprintf("s%05d", i%(benchScale.MRDocs/8+1))},
			"result": map[string]any{"final_energy": -float64(i%37) - 1},
		}); err != nil {
			b.Fatal(err)
		}
	}
	eng := queryengine.New(store)
	stages := []document.D{
		{"$group": document.MustFromJSON(`{"_id": "$stage.structure_id", "best": {"$min": "$result.final_energy"}}`)},
		{"$sort": document.MustFromJSON(`{"best": 1}`)},
		{"$limit": int64(10)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Aggregate("bench", "tasks", stages); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapReduceParallelVsBuiltin puts the §IV-B2 comparison in one
// benchmark: the same reduction on the same corpus, single-threaded
// builtin vs the Hadoop-style engine at increasing worker counts.
func BenchmarkMapReduceParallelVsBuiltin(b *testing.B) {
	b.Run("builtin", func(b *testing.B) {
		tasks := mrFixture(b, benchScale.MRDocs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mapreduce.Builtin(tasks, nil, mrMapper, mrReducer); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			tasks := mrFixture(b, benchScale.MRDocs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mapreduce.RunCollection(tasks, nil, mrMapper, mrReducer, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- aggregation pipeline -----------------------------------------------------

func BenchmarkAggregateGroup(b *testing.B) {
	tasks := mrFixture(b, benchScale.MRDocs)
	pipeline := []document.D{
		{"$group": document.MustFromJSON(`{"_id": "$stage.structure_id", "best": {"$min": "$result.final_energy"}}`)},
		{"$sort": document.MustFromJSON(`{"best": 1}`)},
		{"$limit": int64(10)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tasks.Aggregate(pipeline); err != nil {
			b.Fatal(err)
		}
	}
}
