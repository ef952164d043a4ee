package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"rulematch/internal/bench"
	"rulematch/internal/datagen"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// sizing fixes the make-up of every workload. The benchmark runs
// standardSizing; tests run a tiny one so a whole workload finishes in
// a few seconds.
type sizing struct {
	DebugScale     float64 // products scale of the debug session
	IngestScale    float64 // products scale of the ingest dataset
	IngestBaseFrac float64 // share of table B the ingest session opens on
	IngestBatch    int     // B rows per append batch
	ReplicateScale float64 // products scale of the replicated session
	ChurnScale     float64 // scale of the churn sessions (products: a quarter of it)
	ChurnBudget    float64 // memory budget as a share of the sessions' total resident bytes
	SetupReps      int     // set-ups per run; setup_s is their median
	CountSteps     int     // steps the deterministic work counts cover
}

var standardSizing = sizing{
	DebugScale:     0.2,
	IngestScale:    0.3,
	IngestBaseFrac: 0.6,
	IngestBatch:    8,
	ReplicateScale: 0.1,
	ChurnScale:     0.25,
	ChurnBudget:    0.75,
	SetupReps:      3,
	CountSteps:     40,
}

// sessionInput is one session's generated inputs: the tables and rules
// its create request carries, plus what the oracle needs to re-derive
// the matches.
type sessionInput struct {
	Name  string
	Block string
	A, B  *table.Table // tables as uploaded
	// CSVA, CSVB and DSL are the tables and rules as the create request
	// carries them.
	CSVA, CSVB, DSL string
	Body            []byte // the POST /v1/sessions request
}

// inputs is everything a workload runs on. The program under test only
// ever receives Sessions[i].Body and the per-step requests.
type inputs struct {
	Sessions []*sessionInput
	// Holdout holds the ingest workload's B rows that are not in the
	// session's table B; steps append them in IngestBatch-sized batches.
	Holdout []table.Record
}

// genDataset generates the Table 2-shaped dataset for dom with the
// generator's own seed and mines its Table 2 rule count with a random
// forest (bench.PrepareTask). The tables and rules are the same for
// every benchmark seed: with seeded tables the random bucket sizes of
// the blocking key moved the candidate-pair count, and with it memory
// and disk, by more between seeds than any bound could absorb. The
// benchmark seed drives the script instead.
func genDataset(dom *datagen.Domain, scale float64) (*datagen.Dataset, []rule.Rule, error) {
	task, err := bench.PrepareTask(dom, scale, 0)
	if err != nil {
		return nil, nil, err
	}
	return task.DS, task.Rules, nil
}

func csvText(t *table.Table) (string, error) {
	var buf bytes.Buffer
	if err := t.WriteCSV(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

func rulesDSL(rules []rule.Rule) string {
	var buf bytes.Buffer
	for _, r := range rules {
		buf.WriteString("rule " + r.String() + "\n")
	}
	return buf.String()
}

func newSessionInput(name, block string, a, b *table.Table, rules []rule.Rule) (*sessionInput, error) {
	ta, err := csvText(a)
	if err != nil {
		return nil, err
	}
	tb, err := csvText(b)
	if err != nil {
		return nil, err
	}
	dsl := rulesDSL(rules)
	body, err := json.Marshal(map[string]string{
		"name": name, "tableA": ta, "tableB": tb, "rules": dsl, "block": block,
	})
	if err != nil {
		return nil, err
	}
	return &sessionInput{Name: name, Block: block, A: a, B: b, CSVA: ta, CSVB: tb, DSL: dsl, Body: body}, nil
}

// genInputs builds the named workload's inputs; seed orders the ingest
// hold-out (the scripts take it too).
func genInputs(workload string, sz sizing, seed int64) (*inputs, error) {
	switch workload {
	case "debug", "replicate":
		scale := sz.DebugScale
		if workload == "replicate" {
			scale = sz.ReplicateScale
		}
		ds, rules, err := genDataset(datagen.Products(), scale)
		if err != nil {
			return nil, err
		}
		si, err := newSessionInput(workload, ds.BlockAttr, ds.A, ds.B, rules)
		if err != nil {
			return nil, err
		}
		return &inputs{Sessions: []*sessionInput{si}}, nil
	case "ingest":
		ds, rules, err := genDataset(datagen.Products(), sz.IngestScale)
		if err != nil {
			return nil, err
		}
		// TF-IDF statistics freeze at compile time, so appended rows
		// would see other document frequencies than a cold compile;
		// keep the corpus-independent rules, as bench.Stream does.
		lib := sim.Standard()
		var kept []rule.Rule
		for _, r := range rules {
			ok := true
			for _, p := range r.Preds {
				needs, err := lib.NeedsCorpus(p.Feature.Sim)
				if err != nil {
					return nil, err
				}
				ok = ok && !needs
			}
			if ok {
				kept = append(kept, r)
			}
		}
		cut := int(float64(ds.B.Len()) * sz.IngestBaseFrac)
		base, err := table.New(ds.B.Name, ds.B.Attrs)
		if err != nil {
			return nil, err
		}
		for _, r := range ds.B.Records[:cut] {
			if _, err := base.AppendRecord(r); err != nil {
				return nil, err
			}
		}
		si, err := newSessionInput("ingest", ds.BlockAttr, ds.A, base, kept)
		if err != nil {
			return nil, err
		}
		// The held-out rows arrive in a seeded order.
		holdout := append([]table.Record(nil), ds.B.Records[cut:]...)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(holdout), func(i, j int) { holdout[i], holdout[j] = holdout[j], holdout[i] })
		return &inputs{Sessions: []*sessionInput{si}, Holdout: holdout}, nil
	case "churn":
		in := &inputs{}
		for _, dom := range datagen.AllDomains() {
			// Products carries 255 rules against 10-59 elsewhere; at a
			// quarter of the scale its session is no longer several times
			// the others', so no single session outgrows the budget.
			scale := sz.ChurnScale
			if dom.Name() == "products" {
				scale /= 4
			}
			ds, rules, err := genDataset(dom, scale)
			if err != nil {
				return nil, err
			}
			si, err := newSessionInput("churn-"+dom.Name(), ds.BlockAttr, ds.A, ds.B, rules)
			if err != nil {
				return nil, err
			}
			in.Sessions = append(in.Sessions, si)
		}
		return in, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want debug, ingest, replicate or churn)", workload)
}
