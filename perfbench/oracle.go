package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"rulematch/internal/server"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// The oracle re-derives a session's match set apart from the engine:
// candidate pairs from the blocking attribute of the raw tables, and
// the session's final DNF evaluated pair by pair with the library's
// plain similarity functions (sim.Library.Build(...).Sim) on the raw
// attribute strings — no profiles, dictionaries, memo, predicate
// ordering or batch engine.

type oraclePred struct {
	feat int
	op   string
	t    float64
}

type oracleFeat struct {
	sim        string
	corpus     *sim.Corpus // nil unless the similarity needs one
	colA, colB int
}

func compare(op string, v, t float64) (bool, error) {
	switch op {
	case ">=":
		return v >= t, nil
	case ">":
		return v > t, nil
	case "<=":
		return v <= t, nil
	case "<":
		return v < t, nil
	case "==":
		return v == t, nil
	}
	return false, fmt.Errorf("oracle: unknown operator %q", op)
}

// oracleMatches returns the (idA, idB) pairs that rules match over
// tables a and b blocked on blockAttr. Corpus statistics (TF-IDF) come
// from corpusA and corpusB, the tables the session was compiled on.
func oracleMatches(a, b, corpusA, corpusB *table.Table, blockAttr string, rules []server.RuleInfo) (map[[2]string]bool, error) {
	lib := sim.Standard()
	featIdx := map[string]int{}
	var feats []oracleFeat
	dnf := make([][]oraclePred, len(rules))
	for ri, r := range rules {
		for _, p := range r.Preds {
			key := p.Sim + "(" + p.AttrA + "," + p.AttrB + ")"
			fi, ok := featIdx[key]
			if !ok {
				f, err := buildFeature(lib, p, a, b, corpusA, corpusB)
				if err != nil {
					return nil, err
				}
				fi = len(feats)
				feats = append(feats, f)
				featIdx[key] = fi
			}
			if _, err := compare(p.Op, 0, 0); err != nil {
				return nil, err
			}
			dnf[ri] = append(dnf[ri], oraclePred{feat: fi, op: p.Op, t: p.Threshold})
		}
	}
	colA, ok := a.AttrIndex(blockAttr)
	if !ok {
		return nil, fmt.Errorf("oracle: table A has no attribute %q", blockAttr)
	}
	colB, ok := b.AttrIndex(blockAttr)
	if !ok {
		return nil, fmt.Errorf("oracle: table B has no attribute %q", blockAttr)
	}
	byValue := map[string][]int{}
	for j, rec := range b.Records {
		if v := rec.Values[colB]; v != "" {
			byValue[v] = append(byValue[v], j)
		}
	}
	// Pairs are evaluated in parallel over slices of table A; every
	// worker builds its own similarity functions, so no function state
	// is shared between goroutines.
	workers := runtime.GOMAXPROCS(0)
	parts := make([]map[[2]string]bool, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fns := make([]sim.Func, len(feats))
			for fi, f := range feats {
				fn, err := lib.Build(f.sim, f.corpus)
				if err != nil {
					errs[w] = err
					return
				}
				fns[fi] = fn
			}
			part := map[[2]string]bool{}
			vals := make([]float64, len(feats))
			for i := w; i < len(a.Records); i += workers {
				ra := a.Records[i]
				v := ra.Values[colA]
				if v == "" {
					continue
				}
				for _, j := range byValue[v] {
					rb := b.Records[j]
					for k := range vals {
						vals[k] = math.NaN()
					}
					value := func(fi int) float64 {
						if math.IsNaN(vals[fi]) {
							f := feats[fi]
							vals[fi] = fns[fi].Sim(ra.Values[f.colA], rb.Values[f.colB])
						}
						return vals[fi]
					}
					for _, conj := range dnf {
						all := true
						for _, p := range conj {
							if ok, _ := compare(p.op, value(p.feat), p.t); !ok {
								all = false
								break
							}
						}
						if all {
							part[[2]string{ra.ID, rb.ID}] = true
							break
						}
					}
				}
			}
			parts[w] = part
		}(w)
	}
	wg.Wait()
	out := map[[2]string]bool{}
	for w, part := range parts {
		if errs[w] != nil {
			return nil, errs[w]
		}
		for p := range part {
			out[p] = true
		}
	}
	return out, nil
}

func buildFeature(lib *sim.Library, p server.PredInfo, a, b, corpusA, corpusB *table.Table) (oracleFeat, error) {
	colA, ok := a.AttrIndex(p.AttrA)
	if !ok {
		return oracleFeat{}, fmt.Errorf("oracle: table A has no attribute %q", p.AttrA)
	}
	colB, ok := b.AttrIndex(p.AttrB)
	if !ok {
		return oracleFeat{}, fmt.Errorf("oracle: table B has no attribute %q", p.AttrB)
	}
	needs, err := lib.NeedsCorpus(p.Sim)
	if err != nil {
		return oracleFeat{}, err
	}
	var corpus *sim.Corpus
	if needs {
		corpus = sim.NewCorpus(nil)
		for _, rec := range corpusA.Records {
			corpus.Add(rec.Values[colA])
		}
		for _, rec := range corpusB.Records {
			corpus.Add(rec.Values[colB])
		}
	}
	if _, err := lib.Build(p.Sim, corpus); err != nil {
		return oracleFeat{}, err
	}
	return oracleFeat{sim: p.Sim, corpus: corpus, colA: colA, colB: colB}, nil
}

// compareMatches reports how got differs from the oracle's want.
func compareMatches(got, want map[[2]string]bool) error {
	var missing, extra []string
	for p := range want {
		if !got[p] {
			missing = append(missing, p[0]+"|"+p[1])
		}
	}
	for p := range got {
		if !want[p] {
			extra = append(extra, p[0]+"|"+p[1])
		}
	}
	if len(missing)+len(extra) == 0 {
		return nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Errorf("match set differs from the oracle: %d of %d expected pairs missing %v, %d unexpected %v",
		len(missing), len(want), head(missing), len(extra), head(extra))
}

func head(xs []string) []string {
	if len(xs) > 5 {
		return xs[:5]
	}
	return xs
}
