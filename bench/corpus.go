package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// symbols is the element vocabulary of the seeded corpus: 20 symbols, so
// a 2-3 symbol $all query selects a small but non-empty share of it.
var symbols = []string{
	"Li", "Na", "K", "Mg", "Ca", "Al", "Si", "Fe", "Co", "Ni",
	"Mn", "Cu", "Zn", "Ti", "O", "S", "F", "Cl", "N", "P",
}

// material is the oracle's copy of one stored document: the fields the
// read classes filter on, sort by or return. Absent numeric fields (the
// pipeline's base documents may lack some) are NaN.
type material struct {
	id          string
	elements    []string
	nelements   int
	nelectrons  float64
	bandGap     float64
	ePerAtom    float64
	finalEnergy float64
}

// genDoc builds one materials-shaped document (about 1.4 KB of JSON with
// its 8-site structure) and the oracle's record of it.
func genDoc(rng *rand.Rand, id string) (map[string]any, material) {
	n := 2 + rng.Intn(3)
	perm := rng.Perm(len(symbols))[:n]
	sort.Ints(perm)
	m := material{
		id:         id,
		nelements:  n,
		nelectrons: float64(20 + rng.Intn(400)),
		bandGap:    rng.Float64() * 5,
		ePerAtom:   -8 + rng.Float64()*7,
	}
	formula := ""
	for _, p := range perm {
		m.elements = append(m.elements, symbols[p])
		formula += symbols[p]
		if k := 1 + rng.Intn(4); k > 1 {
			formula += fmt.Sprint(k)
		}
	}
	m.finalEnergy = m.ePerAtom * 8
	return m.doc(rng, formula), m
}

// genWriteDoc builds a document for the write classes. Its band gap,
// element and nelements values lie outside everything the read classes
// ask for and its energy sorts after every page the page class reads, so
// a write adds distinct index keys and invalidates caches but never
// changes an expected read result.
func genWriteDoc(rng *rand.Rand, id string) (map[string]any, material) {
	m := material{
		id:         id,
		elements:   []string{"Xx"},
		nelements:  9,
		nelectrons: float64(1000 + rng.Intn(400)),
		bandGap:    9 + rng.Float64(),
		ePerAtom:   50 + rng.Float64()*10,
	}
	m.finalEnergy = m.ePerAtom * 8
	return m.doc(rng, "Xx8"), m
}

func (m material) doc(rng *rand.Rand, formula string) map[string]any {
	a, b, c := 3+rng.Float64()*4, 3+rng.Float64()*4, 3+rng.Float64()*4
	sites := make([]any, 8)
	for i := range sites {
		sites[i] = map[string]any{
			"species": m.elements[i%len(m.elements)],
			"abc":     []any{rng.Float64(), rng.Float64(), rng.Float64()},
			"xyz":     []any{rng.Float64() * a, rng.Float64() * b, rng.Float64() * c},
		}
	}
	elements := make([]any, len(m.elements))
	for i, e := range m.elements {
		elements[i] = e
	}
	return map[string]any{
		"_id":            m.id,
		"pretty_formula": formula,
		"elements":       elements,
		"nelements":      m.nelements,
		"nelectrons":     m.nelectrons,
		"band_gap":       m.bandGap,
		"e_per_atom":     m.ePerAtom,
		"final_energy":   m.finalEnergy,
		"nsites":         8,
		"functional":     "GGA",
		"structure": map[string]any{
			"lattice": map[string]any{
				"a": a, "b": b, "c": c, "alpha": 90, "beta": 90, "gamma": 90,
				"volume": a * b * c,
			},
			"sites": sites,
		},
	}
}

// corpus is the seeded document set every workload loads, as the
// documents to send and the oracle's records of them.
type corpus struct {
	docs []map[string]any
	mats []material
}

func genCorpus(seed int64, n int) corpus {
	rng := rand.New(rand.NewSource(seed))
	c := corpus{docs: make([]map[string]any, n), mats: make([]material, n)}
	for i := range c.docs {
		c.docs[i], c.mats[i] = genDoc(rng, fmt.Sprintf("mat-b%06d", i))
	}
	return c
}

// oracle is the generator's own copy of the materials collection: the
// documents the deployment held before the load (base) plus the corpus.
// It answers, without asking the server, how many rows each read must
// return. Writes never change those answers (see genWriteDoc), so it is
// immutable once built.
type oracle struct {
	mats   []material
	ids    []string  // corpus ids, in load order: the lookup class's key space
	gaps   []float64 // every band gap present, ascending
	energy map[string]float64
}

func newOracle(base []material, c corpus) *oracle {
	o := &oracle{energy: make(map[string]float64, len(c.mats))}
	o.mats = append(append(o.mats, base...), c.mats...)
	for _, m := range c.mats {
		o.ids = append(o.ids, m.id)
		o.energy[m.id] = m.finalEnergy
	}
	for _, m := range o.mats {
		if !math.IsNaN(m.bandGap) {
			o.gaps = append(o.gaps, m.bandGap)
		}
	}
	sort.Float64s(o.gaps)
	return o
}

// countElements is the number of documents holding every symbol in all
// whose nelectrons is at most maxElectrons.
func (o *oracle) countElements(all []string, maxElectrons float64) int {
	n := 0
	for _, m := range o.mats {
		if m.nelectrons > maxElectrons || math.IsNaN(m.nelectrons) {
			continue
		}
		held := 0
		for _, want := range all {
			for _, e := range m.elements {
				if e == want {
					held++
					break
				}
			}
		}
		if held == len(all) {
			n++
		}
	}
	return n
}

// countGap is the number of documents with lo <= band_gap < hi.
func (o *oracle) countGap(lo, hi float64) int {
	return sort.SearchFloat64s(o.gaps, hi) - sort.SearchFloat64s(o.gaps, lo)
}

// groupByN is the $group result for nelements == n: the row count and the
// mean band gap over rows that have one.
func (o *oracle) groupByN(n int) (count int, avgGap float64) {
	sum, withGap := 0.0, 0
	for _, m := range o.mats {
		if m.nelements != n {
			continue
		}
		count++
		if !math.IsNaN(m.bandGap) {
			sum += m.bandGap
			withGap++
		}
	}
	if withGap > 0 {
		avgGap = sum / float64(withGap)
	}
	return count, avgGap
}
