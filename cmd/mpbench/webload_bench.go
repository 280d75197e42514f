package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"matproj/internal/document"
	"matproj/internal/mpclient"
	"matproj/internal/webload"
)

// The webload experiment drives a RUNNING mpserve deployment (usually
// the routed cluster the check.sh failover smoke boots) with the same
// open-loop mix over HTTP, issuing every read with a max_staleness
// budget so the router may serve it from a follower. It doubles as the
// SLO gate for external chaos: check.sh kills and restarts a shard
// replica while this runs, and a p99 over budget or any probe read
// older than its staleness bound exits nonzero.

// webloadResult is the BENCH_webload.json schema.
type webloadResult struct {
	URL          string  `json:"url"`
	RateQPS      float64 `json:"rate_qps"`
	DurationSec  float64 `json:"duration_sec"`
	MaxStaleness int     `json:"max_staleness"`
	ProbeGroups  int     `json:"probe_groups"`
	Sent         int     `json:"sent"`
	Errors       int     `json:"errors"`
	Records      int     `json:"records"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	P999Ms       float64 `json:"p999_ms"`
	SloP99Ms     float64 `json:"slo_p99_ms"`
	ProbesAcked  int64   `json:"probes_acked"`
	ProbeReads   int64   `json:"probe_reads"`
	Violations   int64   `json:"staleness_violations"`
}

// webloadVocab samples the served corpus for workload vocabulary.
func webloadVocab(c *mpclient.Client) (formulas, elements []string, err error) {
	docs, err := c.Query(document.D{}, []string{"pretty_formula", "elements"}, 300)
	if err != nil {
		return nil, nil, fmt.Errorf("webload: sampling corpus: %w", err)
	}
	fseen, eseen := map[string]bool{}, map[string]bool{}
	for _, d := range docs {
		if f := d.GetString("pretty_formula"); f != "" && !fseen[f] {
			fseen[f] = true
			formulas = append(formulas, f)
		}
		for _, e := range d.GetArray("elements") {
			if s, ok := e.(string); ok && !eseen[s] {
				eseen[s] = true
				elements = append(elements, s)
			}
		}
	}
	return formulas, elements, nil
}

func runWebloadBench(out, url, apiKey string, rate float64, dur time.Duration,
	maxStale, probeGroups int, sloP99Ms float64) error {
	if url == "" {
		return fmt.Errorf("webload: -url is required")
	}
	var c *mpclient.Client
	if apiKey != "" {
		c = mpclient.New(url, apiKey)
	} else {
		signed, err := mpclient.Signup(url, "google", "webload@bench.local")
		if err != nil {
			return fmt.Errorf("webload: signup (pass -api-key to skip): %w", err)
		}
		c = signed
	}

	formulas, elements, err := webloadVocab(c)
	if err != nil {
		return err
	}
	gen, err := webload.NewVocabGenerator(2012, formulas, elements)
	if err != nil {
		return err
	}

	// A fresh tag per run keeps this run's probes apart from any an
	// earlier run left in the deployment.
	run := strconv.FormatInt(time.Now().UnixNano(), 36)
	var probe webload.Probe
	var probesAcked, probeReads, violations atomic.Int64
	stopProbes := make(chan struct{})
	var probeWG sync.WaitGroup
	probeWG.Add(2)
	go func() {
		defer probeWG.Done()
		seq := int64(0)
		for {
			select {
			case <-stopProbes:
				return
			case <-time.After(8 * time.Millisecond):
			}
			seq++
			if _, err := c.Insert("materials", webload.ProbeDoc(run, seq)); err != nil {
				continue
			}
			probe.Ack(seq)
			probesAcked.Store(seq)
		}
	}()
	go func() {
		defer probeWG.Done()
		opts := mpclient.QueryOpts{Sort: []string{"-probe_seq"}, Limit: 1, MaxStaleness: maxStale}
		for {
			select {
			case <-stopProbes:
				return
			case <-time.After(10 * time.Millisecond):
			}
			acked := probe.Acked()
			docs, err := c.QueryWith(webload.ProbeFilter(run), nil, opts)
			if err != nil {
				continue
			}
			probeReads.Add(1)
			if webload.ProbeViolation(webload.ObservedSeq(docs), acked, probeGroups, maxStale) {
				violations.Add(1)
			}
		}
	}()

	fmt.Printf("open-loop HTTP load on %s: %.0f q/s for %v (max_staleness=%d)...\n",
		url, rate, dur, maxStale)
	res, err := gen.RunOpenLoop(func(q webload.Query) (int, error) {
		opts := mpclient.QueryOpts{MaxStaleness: maxStale}
		if q.Opts != nil {
			opts.Limit = q.Opts.Limit
			opts.Skip = q.Opts.Skip
			opts.Sort = q.Opts.Sort
		}
		if q.Kind == webload.KindCount {
			// The public API has no count verb; a bounded find exercises
			// the same scatter path.
			opts.Limit = 40
		}
		docs, err := c.QueryWith(q.Filter, nil, opts)
		return len(docs), err
	}, webload.OpenLoopConfig{Rate: rate, Duration: dur})
	if err != nil {
		return err
	}
	close(stopProbes)
	probeWG.Wait()

	result := webloadResult{
		URL:          url,
		RateQPS:      rate,
		DurationSec:  dur.Seconds(),
		MaxStaleness: maxStale,
		ProbeGroups:  probeGroups,
		Sent:         res.Sent,
		Errors:       res.Errors,
		Records:      res.Records,
		P50Ms:        float64(webload.LatencyQuantile(res.Samples, 0.50)) / 1e6,
		P99Ms:        float64(webload.LatencyQuantile(res.Samples, 0.99)) / 1e6,
		P999Ms:       float64(webload.LatencyQuantile(res.Samples, 0.999)) / 1e6,
		SloP99Ms:     sloP99Ms,
		ProbesAcked:  probesAcked.Load(),
		ProbeReads:   probeReads.Load(),
		Violations:   violations.Load(),
	}
	if err := writeJSON(out, result); err != nil {
		return err
	}
	fmt.Printf("  sent=%d errors=%d records=%d  p50=%.2fms p99=%.2fms p999=%.2fms\n",
		result.Sent, result.Errors, result.Records, result.P50Ms, result.P99Ms, result.P999Ms)
	fmt.Printf("  probes acked=%d reads=%d violations=%d\n",
		result.ProbesAcked, result.ProbeReads, result.Violations)
	fmt.Printf("wrote %s\n", out)

	if result.P99Ms > sloP99Ms {
		return fmt.Errorf("webload: p99 %.2f ms exceeds SLO budget %.2f ms", result.P99Ms, sloP99Ms)
	}
	if result.Violations > 0 {
		return fmt.Errorf("webload: %d probe reads observed data older than the staleness bound", result.Violations)
	}
	if result.ProbesAcked == 0 {
		return fmt.Errorf("webload: no probe write was acknowledged, so the staleness check had nothing to check")
	}
	if result.ProbeReads == 0 {
		return fmt.Errorf("webload: the staleness prober never completed a read")
	}
	return nil
}
