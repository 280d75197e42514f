// Command mpbench regenerates every table and figure of the paper from
// the reproduction pipeline and prints them as text. Run all experiments
// or a single one:
//
//	mpbench -exp all
//	mpbench -exp table1
//	mpbench -exp fig1 -scale full
//
// Experiments: table1, fig1, fig2, fig3, fig4, fig5, mapreduce, taskfarm,
// fireworks, weekstats, all. One more is not part of all: webload drives
// a running mpserve deployment (-url) with open-loop load and gates on
// p99 and read staleness; scripts/check.sh runs it while it kills and
// restarts a shard replica. Performance claims are measured by the
// bench/ harness instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"matproj/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (table1|fig1|fig2|fig3|fig4|fig5|mapreduce|taskfarm|fireworks|weekstats|webload|all)")
	scaleName := flag.String("scale", "full", "experiment scale (small|full)")
	webloadOut := flag.String("webload-out", "BENCH_webload.json", "webload mode: open-loop HTTP load results file")
	rate := flag.Float64("rate", 150, "webload mode: open-loop arrival rate in queries/sec")
	loadDur := flag.Duration("load-duration", 4*time.Second, "webload mode: open-loop load window")
	maxStale := flag.Int("max-staleness", 4, "webload mode: staleness budget in generations for follower reads")
	sloP99 := flag.Float64("slo-p99-ms", 250, "webload mode: p99 latency budget; exceeding it fails the run")
	urlFlag := flag.String("url", "", "webload mode: base URL of a running mpserve deployment")
	apiKey := flag.String("api-key", "", "webload mode: API key (empty = self-signup)")
	probeGroups := flag.Int("probe-groups", 2, "webload mode: target's shard group count (staleness slack)")
	flag.Parse()

	sc := experiments.Full
	if *scaleName == "small" {
		sc = experiments.Small
	}

	runners := map[string]func() error{
		"table1": func() error {
			rows, err := experiments.TableI(sc)
			if err != nil {
				return err
			}
			experiments.RenderTableI(os.Stdout, rows)
			return nil
		},
		"fig1": func() error {
			r, err := experiments.Fig1(sc)
			if err != nil {
				return err
			}
			experiments.RenderFig1(os.Stdout, r)
			return nil
		},
		"fig2": func() error {
			r, err := experiments.Fig2(sc)
			if err != nil {
				return err
			}
			experiments.RenderFig2(os.Stdout, r)
			return nil
		},
		"fig3": func() error {
			steps, err := experiments.Fig3(sc)
			if err != nil {
				return err
			}
			experiments.RenderFig3(os.Stdout, steps)
			return nil
		},
		"fig4": func() error {
			r, err := experiments.Fig4(sc)
			if err != nil {
				return err
			}
			experiments.RenderFig4(os.Stdout, r)
			return nil
		},
		"fig5": func() error {
			r, err := experiments.Fig5(sc)
			if err != nil {
				return err
			}
			experiments.RenderFig5(os.Stdout, r)
			return nil
		},
		"mapreduce": func() error {
			rows, err := experiments.MapReduceComparison(sc, []int{1, 2, 4, 8})
			if err != nil {
				return err
			}
			experiments.RenderMR(os.Stdout, rows)
			return nil
		},
		"taskfarm": func() error {
			rows, err := experiments.TaskFarm(sc)
			if err != nil {
				return err
			}
			experiments.RenderTaskFarm(os.Stdout, rows)
			return nil
		},
		"fireworks": func() error {
			r, err := experiments.FireworksFeatures(sc)
			if err != nil {
				return err
			}
			experiments.RenderFireworksFeatures(os.Stdout, r)
			return nil
		},
		"weekstats": func() error {
			r, err := experiments.WeekStats(sc)
			if err != nil {
				return err
			}
			fmt.Printf("Week accounting (paper: 3315 distinct queries, 12,951,099 records)\n")
			fmt.Printf("  queries: %d\n  records: %d\n", r.Queries, r.Records)
			return nil
		},
		// webload drives a running mpserve deployment (-url) with the
		// open-loop web-query mix over HTTP, gating on p99 and staleness.
		"webload": func() error {
			return runWebloadBench(*webloadOut, *urlFlag, *apiKey, *rate, *loadDur, *maxStale, *probeGroups, *sloP99)
		},
	}

	order := []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "mapreduce", "taskfarm", "fireworks", "weekstats"}
	names := order
	if *exp != "all" {
		if _, ok := runners[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "mpbench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		names = []string{*exp}
	}
	for _, name := range names {
		fmt.Printf("==== %s ====\n", name)
		start := time.Now()
		if err := runners[name](); err != nil {
			fmt.Fprintf(os.Stderr, "mpbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("---- %s done in %v ----\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

// writeJSON writes v to path as indented JSON (the webload result
// artifact).
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
