package main

import (
	"context"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"rulematch/internal/block"
	"rulematch/internal/cliflags"
	"rulematch/internal/core"
	"rulematch/internal/datagen"
	"rulematch/internal/incremental"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
)

// tinySizing keeps whole workloads to a few seconds.
var tinySizing = sizing{
	DebugScale: 0.03, IngestScale: 0.05, IngestBaseFrac: 0.5, IngestBatch: 5,
	ReplicateScale: 0.03, ChurnScale: 0.03, ChurnBudget: 0.6, SetupReps: 1, CountSteps: 20,
}

// matchedIDs runs rules over the dataset with the engine and returns
// the matched (idA, idB) pairs and the session.
func matchedIDs(t *testing.T, ds *datagen.Dataset, rules []rule.Rule) (map[[2]string]bool, *incremental.Session) {
	t.Helper()
	c, err := core.Compile(rule.Function{Rules: rules}, sim.Standard(), ds.A, ds.B)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := block.AttrEquivalence{Attr: ds.BlockAttr}.Pairs(ds.A, ds.B)
	if err != nil {
		t.Fatal(err)
	}
	sess := incremental.NewSessionConfig(c, pairs, productionConfig())
	if err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := map[[2]string]bool{}
	for pi, p := range sess.M.Pairs {
		if sess.Matched(pi) {
			out[[2]string{ds.A.Records[p.A].ID, ds.B.Records[p.B].ID}] = true
		}
	}
	return out, sess
}

// TestOracleRejectsWrongMatchSets shows the oracle check cannot pass
// vacuously: it accepts the engine's match set and rejects the same set
// with one pair flipped, and a set computed with one rule missing.
func TestOracleRejectsWrongMatchSets(t *testing.T) {
	ds, rules, err := genDataset(datagen.Restaurants(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	got, sess := matchedIDs(t, ds, rules)
	infos := ruleInfos(sess)
	want, err := oracleMatches(ds.A, ds.B, ds.A, ds.B, ds.BlockAttr, infos)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("oracle found no matches; the test would be vacuous")
	}
	if err := compareMatches(got, want); err != nil {
		t.Fatalf("engine and oracle disagree: %v", err)
	}

	flipped := map[[2]string]bool{}
	for p := range got {
		flipped[p] = true
	}
	for p := range got {
		delete(flipped, p)
		break
	}
	if compareMatches(flipped, want) == nil {
		t.Error("oracle accepted a match set with one pair removed")
	}
	extra := map[[2]string]bool{}
	for p := range got {
		extra[p] = true
	}
	extra[[2]string{ds.A.Records[0].ID, "no-such-record"}] = true
	if compareMatches(extra, want) == nil {
		t.Error("oracle accepted a match set with one pair added")
	}

	// Drop each rule in turn until the engine's match set changes: the
	// oracle, given the full rule set, must reject it.
	for ri := range rules {
		fewer := append(append([]rule.Rule(nil), rules[:ri]...), rules[ri+1:]...)
		partial, _ := matchedIDs(t, ds, fewer)
		if len(partial) == len(got) {
			continue
		}
		if compareMatches(partial, want) == nil {
			t.Errorf("oracle accepted the match set of the rule set without %s", rules[ri].Name)
		}
		return
	}
	t.Fatal("no single rule changes the match set; pick another dataset")
}

func TestSelfTimeChildCoversParent(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 10, End: 20, Parent: -1},
		{Name: "child", Start: 5, End: 25, Parent: 0},
	}
	self := selfTimes(spans)
	if self[0] != 0 {
		t.Errorf("parent self time %v, want 0", self[0])
	}
	if self[1] != 20 {
		t.Errorf("child self time %v, want 20", self[1])
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a by 10
		{Name: "c", Start: 80, End: 90, Parent: 0},
		{Name: "a1", Start: 15, End: 20, Parent: 1},
	}
	self := selfTimes(spans)
	want := []time.Duration{100 - 50 - 10, 30 - 5, 30, 10, 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// TestProductionConfig fails when the benchmark's server configuration
// drifts from what emserve serves with by default.
func TestProductionConfig(t *testing.T) {
	cfg := productionConfig()
	if cfg != cliflags.NewEngine().Config() {
		t.Errorf("engine config %+v, emserve default %+v", cfg, cliflags.NewEngine().Config())
	}
	if !cfg.ProfileCache || !cfg.DictProfiles || cfg.Engine != core.EngineBatch || !cfg.CheckCacheFirst {
		t.Errorf("engine config %+v is not the production one", cfg)
	}
	src, err := os.ReadFile("../cmd/emserve/main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []*regexp.Regexp{
		regexp.MustCompile(`eng := cliflags\.NewEngine\(\)`),
		regexp.MustCompile(`server\.New\(eng\.Config\(\)\)`),
		regexp.MustCompile(`flag\.String\("fsync", "` + emserveFsync + `"`),
		regexp.MustCompile(`flag\.Int64\("compact", wal\.DefaultCompactBytes,`),
		regexp.MustCompile(`Durability\{Dir: \*dataDir, Policy: policy, CompactAt: \*compact\}`),
	} {
		if !want.Match(src) {
			t.Errorf("cmd/emserve/main.go no longer matches %s; update the benchmark's configuration", want)
		}
	}
	d, err := durability(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if d.Policy.String() != emserveFsync {
		t.Errorf("flush policy %s, want %s", d.Policy, emserveFsync)
	}
	h := configHeader("debug", t.TempDir())
	for _, part := range []string{"core.Config=", "fsync=always", "GOMAXPROCS=", "datadirFS="} {
		if !strings.Contains(h, part) {
			t.Errorf("header %q lacks %q", h, part)
		}
	}
}

// TestWorkloadsCorrectAndCountsRepeat runs every workload twice with
// one seed at a tiny size: both runs pass the output checks and report
// identical work counts.
func TestWorkloadsCorrectAndCountsRepeat(t *testing.T) {
	for _, w := range []string{"debug", "ingest", "replicate", "churn"} {
		t.Run(w, func(t *testing.T) {
			in, err := genInputs(w, tinySizing, 3)
			if err != nil {
				t.Fatal(err)
			}
			var counts []any
			for i := 0; i < 2; i++ {
				run, err := runE2E(w, in, tinySizing, 3, 0.3, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if run.checkErr != nil || !run.res.Correct || run.res.Failed != 0 {
					t.Fatalf("run %d: check %v, %d of %d operations failed", i, run.checkErr, run.res.Failed, run.res.Attempted)
				}
				for _, m := range []string{"setup_s", "write_ms", "read_p50_ms", "steps_per_s", "heap_mb", "resident_mb", "disk_mb"} {
					if run.res.Metrics[m].Value <= 0 {
						t.Errorf("run %d: %s = %v, want > 0", i, m, run.res.Metrics[m].Value)
					}
				}
				counts = append(counts, run.info["counts"])
			}
			if !reflect.DeepEqual(counts[0], counts[1]) {
				t.Errorf("work counts differ between runs of one seed:\n%+v\n%+v", counts[0], counts[1])
			}
		})
	}
}
