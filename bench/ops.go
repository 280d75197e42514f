package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
)

// classes maps each op class to the stream method that generates it. The
// names are part of the benchmark's vocabulary: per-layer metrics are
// called restapi.<class>_p50_ms.
var classes = map[string]func(*stream) op{
	"lookup":     (*stream).lookup,
	"elements":   (*stream).elements,
	"range":      (*stream).gapRange,
	"page":       (*stream).page,
	"aggregate":  (*stream).aggregate,
	"insert":     (*stream).insert,
	"insertMany": (*stream).insertMany,
}

// op is one generated request and what the oracle expects back.
type op struct {
	class  string
	method string
	path   string
	body   []byte
	// want is the expected num_results; verify, when set, checks the
	// rows' content as well.
	want   int
	verify func(rows []map[string]any) error
	// ids are the document ids a write sends, which its reply must echo
	// in order; userBytes is the JSON size of those documents.
	ids       []string
	userBytes int
}

// envelope is the Materials API's standard reply.
type envelope struct {
	Valid    bool             `json:"valid_response"`
	Error    string           `json:"error"`
	Response []map[string]any `json:"response"`
	N        int              `json:"num_results"`
}

// check compares one reply with the op's expectation.
func (o *op) check(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", o.class, status, body)
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("%s: reply is not JSON: %v", o.class, err)
	}
	if !env.Valid {
		return fmt.Errorf("%s: valid_response false: %s", o.class, env.Error)
	}
	if env.N != o.want || len(env.Response) != o.want {
		return fmt.Errorf("%s %s: num_results %d (%d rows), oracle expects %d", o.class, o.body, env.N, len(env.Response), o.want)
	}
	for i, id := range o.ids {
		if got, _ := env.Response[i]["_id"].(string); got != id {
			return fmt.Errorf("%s: row %d acknowledges %q, sent %q", o.class, i, got, id)
		}
	}
	if o.verify != nil {
		if err := o.verify(env.Response); err != nil {
			return fmt.Errorf("%s %s: %v", o.class, o.body, err)
		}
	}
	return nil
}

// ascending checks that rows are sorted by a numeric field and that each
// value lies in [lo, hi).
func ascending(field string, lo, hi float64) func([]map[string]any) error {
	return func(rows []map[string]any) error {
		prev := math.Inf(-1)
		for i, r := range rows {
			v, ok := r[field].(float64)
			if !ok || v < prev || v < lo || v >= hi {
				return fmt.Errorf("row %d: %s = %v breaks order or bounds [%g, %g) after %g", i, field, r[field], lo, hi, prev)
			}
			prev = v
		}
		return nil
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps, slices, strings and finite numbers reach here
	}
	return b
}

// classWeight is one class's share of a workload's arrivals.
type classWeight struct {
	class  string
	weight float64
}

// readMix is the Fig. 5 read mix R.
var readMix = []classWeight{{"lookup", 55}, {"elements", 25}, {"range", 13}, {"page", 4}, {"aggregate", 3}}

// scaled returns mix with every weight multiplied by f.
func scaled(mix []classWeight, f float64) []classWeight {
	out := make([]classWeight, len(mix))
	for i, cw := range mix {
		out[i] = classWeight{cw.class, cw.weight * f}
	}
	return out
}

// stream generates one client's operations from a seed. Classes follow a
// smooth weighted round-robin, so any run of consecutive ops holds each
// class in its exact share and only the parameters are random: the class
// latencies differ by two orders of magnitude, and a random class count
// would dominate the run-to-run spread of every percentile.
type stream struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	o        *oracle
	mix      []classWeight
	credit   []float64
	total    float64
	tag      string // distinguishes this stream's written ids
	written  int
	manyDocs int
	rangeW   float64
}

func newStream(seed int64, tag string, o *oracle, w workload) *stream {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{
		rng:      rng,
		zipf:     rand.NewZipf(rng, 1.1, 1, uint64(len(o.ids)-1)),
		o:        o,
		mix:      w.mix,
		credit:   make([]float64, len(w.mix)),
		tag:      tag,
		manyDocs: w.manyDocs,
		// A range query matches about 300 documents, three times its
		// limit, whatever the corpus size (down to 600 documents).
		rangeW: min(2.5, math.Ceil(1000*5*300/float64(len(o.mats)))/1000),
	}
	for _, cw := range w.mix {
		s.total += cw.weight
	}
	return s
}

func (s *stream) next() op {
	best := 0
	for i, cw := range s.mix {
		s.credit[i] += cw.weight
		if s.credit[i] > s.credit[best] {
			best = i
		}
	}
	s.credit[best] -= s.total
	return classes[s.mix[best].class](s)
}

func query(class string, body map[string]any) op {
	return op{class: class, method: http.MethodPost, path: "/rest/v1/query", body: mustJSON(body)}
}

func (s *stream) lookup() op {
	id := s.o.ids[s.zipf.Uint64()]
	energy := s.o.energy[id]
	return op{
		class: "lookup", method: http.MethodGet, path: "/rest/v1/materials/" + id + "/vasp/energy", want: 1,
		verify: func(rows []map[string]any) error {
			if rows[0]["material_id"] != id || rows[0]["energy"] != energy {
				return fmt.Errorf("got %v, want id %s energy %v", rows[0], id, energy)
			}
			return nil
		},
	}
}

// elements is the paper's verbatim query shape: materials holding all of
// two or three elements, below an electron count, two properties back.
func (s *stream) elements() op {
	n := 2 + s.rng.Intn(2)
	all := make([]string, n)
	for i, p := range s.rng.Perm(len(symbols))[:n] {
		all[i] = symbols[p]
	}
	maxElectrons := float64(100 + 40*s.rng.Intn(9))
	o := query("elements", map[string]any{
		"criteria":   map[string]any{"elements": map[string]any{"$all": all}, "nelectrons": map[string]any{"$lte": maxElectrons}},
		"properties": []string{"formula", "band_gap"},
		"limit":      50,
	})
	o.want = min(50, s.o.countElements(all, maxElectrons))
	return o
}

func (s *stream) gapRange() op {
	lo := float64(s.rng.Intn(int((5-s.rangeW)*1000))) / 1000
	hi := lo + s.rangeW
	o := query("range", map[string]any{
		"criteria": map[string]any{"band_gap": map[string]any{"$gte": lo, "$lt": hi}},
		"sort":     []string{"band_gap"},
		"limit":    100,
	})
	o.want = min(100, s.o.countGap(lo, hi))
	o.verify = ascending("band_gap", lo, hi)
	return o
}

func (s *stream) page() op {
	o := query("page", map[string]any{
		"criteria":   map[string]any{},
		"sort":       []string{"e_per_atom"},
		"skip":       20 * s.rng.Intn(10),
		"limit":      20,
		"properties": []string{"formula", "energy_per_atom"},
	})
	o.want = 20
	o.verify = ascending("e_per_atom", math.Inf(-1), 50)
	return o
}

func (s *stream) aggregate() op {
	n := 2 + s.rng.Intn(3)
	count, avg := s.o.groupByN(n)
	return op{
		class: "aggregate", method: http.MethodPost, path: "/rest/v1/aggregate", want: 1,
		body: mustJSON(map[string]any{"pipeline": []any{
			map[string]any{"$match": map[string]any{"nelements": n}},
			map[string]any{"$group": map[string]any{
				"_id": "$nelements", "n": map[string]any{"$sum": 1}, "avg_gap": map[string]any{"$avg": "$band_gap"},
			}},
		}}),
		verify: func(rows []map[string]any) error {
			gotN, _ := rows[0]["n"].(float64)
			gotAvg, _ := rows[0]["avg_gap"].(float64)
			if int(gotN) != count || math.Abs(gotAvg-avg) > 1e-9*math.Abs(avg) {
				return fmt.Errorf("got n=%v avg=%v, oracle expects n=%d avg=%v", rows[0]["n"], rows[0]["avg_gap"], count, avg)
			}
			return nil
		},
	}
}

func (s *stream) writeDoc() (map[string]any, string) {
	id := fmt.Sprintf("mat-w%s-%07d", s.tag, s.written)
	s.written++
	doc, _ := genWriteDoc(s.rng, id)
	return doc, id
}

func (s *stream) insert() op {
	doc, id := s.writeDoc()
	body := mustJSON(map[string]any{"doc": doc})
	return op{
		class: "insert", method: http.MethodPost, path: "/rest/v1/insert", want: 1,
		body: body, ids: []string{id}, userBytes: len(body) - len(`{"doc":}`),
	}
}

func (s *stream) insertMany() op {
	docs := make([]map[string]any, s.manyDocs)
	ids := make([]string, s.manyDocs)
	for i := range docs {
		docs[i], ids[i] = s.writeDoc()
	}
	body := mustJSON(map[string]any{"docs": docs})
	return op{
		class: "insertMany", method: http.MethodPost, path: "/rest/v1/insertMany", want: len(docs),
		body: body, ids: ids, userBytes: len(body) - len(`{"docs":}`),
	}
}

// workload is one traffic mix on one deployment shape.
type workload struct {
	name    string
	routed  bool // 2 shards x 2 members behind a router, else one server
	durable bool // every storage process runs with -data
	// rate is the open-loop arrival rate in requests per second; 0 makes
	// the workload a closed loop of clients callers.
	rate     float64
	clients  int
	mix      []classWeight
	manyDocs int // documents per insertMany
}

// mixedMix is 90 % read mix R, 8 % insert, 2 % insertMany.
var mixedMix = append(scaled(readMix, 0.9), classWeight{"insert", 8}, classWeight{"insertMany", 2})

var workloads = []workload{
	{name: "portal_routed", routed: true, rate: portalRate, mix: readMix},
	{name: "mixed_routed", routed: true, durable: true, rate: mixedRate, mix: mixedMix, manyDocs: 50},
	{name: "mixed_standalone", durable: true, rate: mixedRate, mix: mixedMix, manyDocs: 50},
	{name: "ingest_routed", routed: true, durable: true, clients: 1,
		mix: []classWeight{{"insertMany", 80}, {"insert", 20}}, manyDocs: 100},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
