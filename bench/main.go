// Command bench is the repository's one performance benchmark. It builds
// cmd/mpserve, starts real server processes (one durable standalone
// server, or four nodes and a router as 2 shards x 2 members), loads a
// seeded corpus through the public REST API, drives one of four workloads
// against it, checks every reply against its own oracle, and prints every
// metric BENCHMARK.json names. See README.md.
//
//	bash bench/run.sh --workload portal_routed --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --trace 1                  # all four workloads, every metric
//	bash bench/run.sh --repeat 2 --out out/a.json
//	bash bench/run.sh --compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"matproj/internal/stats"
)

// spec is BENCHMARK.json: the metric names, units, directions and bounds
// this program reports against.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec() (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 2012, "workload seed: the same seed gives the same corpus and requests")
	seconds := flag.Int("seconds", 0, "measurement window in seconds (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 adds the traced in-process replay and reports the per-layer metrics")
	repeat := flag.Int("repeat", 1, "run the chosen workloads this many times and compare the first half of the runs with the second")
	out := flag.String("out", filepath.Join(outDir, "results.json"), "with -repeat: file the runs' results are written to")
	compare := flag.Bool("compare", false, "compare the two result files given as arguments against the bounds")
	flag.Parse()

	sp, err := readSpec()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		a, err := readResults(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := readResults(flag.Arg(1))
		if err != nil {
			return err
		}
		return compareRuns(sp, a, b)
	}

	chosen := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		chosen = []workload{w}
	}
	if *seconds == 0 {
		*seconds = sp.RunSeconds
	}
	reported := sp.EndToEnd
	if *trace == 1 {
		reported = sp.PerLayer
	}
	cfg, err := defaultConfig()
	if err != nil {
		return err
	}
	cfg.window = time.Duration(*seconds) * time.Second
	if cfg.trace = *trace == 1; cfg.trace {
		cfg.setupReps = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}

	var all []*result
	incorrect := 0
	for i := 0; i < *repeat; i++ {
		for _, w := range chosen {
			res, err := cfg.runWorkload(w, *seed)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			all = append(all, res)
			if res.Failed > 0 {
				incorrect++
			}
			if err := res.print(reported); err != nil {
				return err
			}
		}
	}
	if len(chosen) > 1 && cfg.trace {
		if !printPredictions(all) {
			incorrect++
		}
	}
	if *repeat > 1 {
		if err := writeJSONFile(*out, all); err != nil {
			return err
		}
		half := len(all) / 2
		if err := compareRuns(sp, all[:half], all[half:]); err != nil {
			return err
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d run(s) failed the oracle or a prediction", incorrect)
	}
	return nil
}

// print writes the human-readable table to standard error and, as the
// last line of standard output, the one JSON object the benchmark
// contract asks for.
func (res *result) print(reported []metricSpec) error {
	fmt.Fprintf(os.Stderr, "\n%s  seed=%d  attempted=%d failed=%d\n", res.Workload, res.Seed, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "  oracle: %s\n", e)
	}
	type reportedValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]reportedValue{}
	for _, m := range reported {
		v, ok := res.Values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s has no finite value", res.Workload, m.Name)
		}
		metrics[m.Name] = reportedValue{v, m.Unit}
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", m.Name, v, m.Unit)
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printPredictions checks the interactions README.md predicts between
// layers and workloads, on a run that measured all of them. It reports
// whether all hold.
func printPredictions(all []*result) bool {
	v := map[string]map[string]float64{}
	for _, r := range all {
		v[r.Workload] = r.Values
	}
	checks := []struct {
		claim string
		holds bool
	}{
		{"rcache.hit_ratio > 0.10 on portal_routed", v["portal_routed"]["rcache.hit_ratio"] > 0.10},
		{"rcache.hit_ratio < 0.05 on mixed_routed", v["mixed_routed"]["rcache.hit_ratio"] < 0.05},
		{"cluster.fanout_per_op = 0 on mixed_standalone", v["mixed_standalone"]["cluster.fanout_per_op"] == 0},
		{"journal.fsyncs_per_op = 0 on portal_routed", v["portal_routed"]["journal.fsyncs_per_op"] == 0},
		{"cpu_ms_per_op on mixed_routed >= 2x mixed_standalone",
			v["mixed_routed"]["cpu_ms_per_op"] >= 2*v["mixed_standalone"]["cpu_ms_per_op"]},
	}
	ok := true
	fmt.Fprintln(os.Stderr, "\npredictions")
	for _, c := range checks {
		verdict := "HOLDS"
		if !c.holds {
			verdict, ok = "FAILS", false
		}
		fmt.Fprintf(os.Stderr, "  %-5s %s\n", verdict, c.claim)
	}
	return ok
}

func readResults(path string) ([]*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// compareRuns prints, per workload and end-to-end metric, the medians of
// two sets of runs, b's relative difference from a, and whether b is
// worse than a by more than the metric's bound. It returns an error if
// any pairing is.
func compareRuns(sp *spec, a, b []*result) error {
	median := func(rs []*result, workload, metric string) (float64, bool) {
		var vals []float64
		for _, r := range rs {
			if v, ok := r.Values[metric]; ok && r.Workload == workload {
				vals = append(vals, v)
			}
		}
		return stats.Summarize(vals).P50, len(vals) > 0
	}
	failed := 0
	fmt.Fprintf(os.Stderr, "\n%-18s %-16s %12s %12s %8s %6s\n", "workload", "metric", "a", "b", "diff", "bound")
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			va, okA := median(a, w.name, m.Name)
			vb, okB := median(b, w.name, m.Name)
			if !okA || !okB {
				continue
			}
			diff := (vb - va) / va
			worse := diff
			if m.Better == "higher" {
				worse = -diff
			}
			verdict := "PASS"
			if worse > m.Bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(os.Stderr, "%-18s %-16s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n", w.name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workload x metric pairing(s) differ by more than their bound", failed)
	}
	return nil
}
