package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"rulematch/internal/block"
	"rulematch/internal/core"
	"rulematch/internal/incremental"
	"rulematch/internal/persist"
	"rulematch/internal/replica"
	"rulematch/internal/rule"
	"rulematch/internal/server"
	"rulematch/internal/sessionstore"
	"rulematch/internal/sim"
	"rulematch/internal/table"
	"rulematch/internal/wal"
)

// The traced run has two passes over the same seeded script:
//
//  1. The HTTP pass runs the workload exactly as the untraced run does
//     (plus, on replicate, a plain follower read after each barrier
//     read and a watcher on the follower's applied sequence). It gives
//     the HTTP step times, the work counts, allocation deltas and the
//     replica figures.
//  2. The direct pass rebuilds the sessions and replays the same steps
//     through each layer's public functions — the calls the handlers
//     make, without HTTP and JSON — recording a span around every call.
//     Rounds alternate between recorder on and off, which gives the
//     tracing overhead; the off rounds give the direct step times the
//     server share is measured against.
//
// Layers a workload does not exercise report 0.

// layerMetrics lists the per-layer metrics and their units in output
// order.
var layerMetrics = []struct{ name, unit string }{
	{"table.parse_ms", "ms"},
	{"rule.parse_ms", "ms"},
	{"block.pairs_ms", "ms"},
	{"block.delta_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"core.run_ms", "ms"},
	{"core.feature_computes", "count/step"},
	{"core.memo_hits", "count/step"},
	{"core.pred_evals", "count/step"},
	{"sim.compute_ns", "ns"},
	{"incremental.add_predicate_ms", "ms"},
	{"incremental.remove_predicate_ms", "ms"},
	{"incremental.tighten_ms", "ms"},
	{"incremental.relax_ms", "ms"},
	{"incremental.set_threshold_ms", "ms"},
	{"incremental.add_rule_ms", "ms"},
	{"incremental.remove_rule_ms", "ms"},
	{"incremental.pairs_examined", "count/step"},
	{"incremental.append_ms", "ms"},
	{"incremental.delta_pairs", "count/step"},
	{"wal.append_ms", "ms"},
	{"wal.bytes_per_write", "B"},
	{"wal.compact_ms", "ms"},
	{"wal.compactions", "count/100"},
	{"persist.save_ms", "ms"},
	{"persist.load_ms", "ms"},
	{"persist.snapshot_kb", "KB"},
	{"sessionstore.acquire_ms", "ms"},
	{"sessionstore.evictions", "count/100"},
	{"sessionstore.reloads", "count/100"},
	{"sessionstore.resident_hits", "%"},
	{"server.write_ms", "ms"},
	{"server.read_ms", "ms"},
	{"server.response_kb", "KB"},
	{"replica.bootstrap_ms", "ms"},
	{"replica.apply_ms", "ms"},
	{"replica.wait_ms", "ms"},
	{"replica.rebootstraps", "count"},
	{"runtime.allocs_per_step", "count"},
	{"runtime.alloc_kb_per_step", "KB"},
	{"runtime.gc_per_100_steps", "count/100"},
	{"trace.overhead_pct", "%"},
}

// editOps maps edit op names to their per-layer metric.
var editOps = map[string]string{
	"add_predicate": "incremental.add_predicate_ms", "remove_predicate": "incremental.remove_predicate_ms",
	"tighten": "incremental.tighten_ms", "relax": "incremental.relax_ms",
	"set_threshold": "incremental.set_threshold_ms", "add_rule": "incremental.add_rule_ms",
	"remove_rule": "incremental.remove_rule_ms",
}

func runTraced(workload string, in *inputs, sz sizing, seed int64, seconds float64, parent string) (*result, error) {
	m := map[string]float64{}
	httpRun, err := tracedHTTP(workload, in, sz, seed, seconds, parent, m)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: httpRun.checkErr == nil, Metrics: map[string]metric{}}
	for _, st := range httpRun.steps {
		res.Attempted += st.ops
		res.Failed += st.failed
	}
	d, err := newDirect(filepath.Join(parent, "direct"), workload, in, sz)
	if err != nil {
		return nil, err
	}
	defer d.store.CloseAll()
	if err := d.replay(workload, in, sz, seed, httpRun.steps, m); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(filepath.Dir(parent), fmt.Sprintf("trace-%s-%d.json", workload, seed)), d.rec.spans); err != nil {
		return nil, err
	}
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{m[lm.name], lm.unit}
	}
	return res, httpRun.checkErr
}

// runtimeCounters reads the allocation and GC counters.
func runtimeCounters() (objects, bytes, gcs uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// applyWatcher records when a follower first reports each applied
// sequence of one session.
type applyWatcher struct {
	stop, done chan struct{}
	seen       map[uint64]time.Time
}

func watchApplied(mgr *replica.Manager, name string) *applyWatcher {
	w := &applyWatcher{stop: make(chan struct{}), done: make(chan struct{}), seen: map[uint64]time.Time{}}
	go func() {
		defer close(w.done)
		var last uint64
		for {
			select {
			case <-w.stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
			if s, ok := mgr.AppliedSeq(name); ok && s > last {
				now := time.Now()
				for q := last + 1; q <= s; q++ {
					w.seen[q] = now
				}
				last = s
			}
		}
	}()
	return w
}

// halt stops the watcher and waits for it; seen is safe to read after.
func (w *applyWatcher) halt() {
	close(w.stop)
	<-w.done
}

// tracedHTTP is the HTTP pass. It fills the metrics it can measure
// there and returns the run.
func tracedHTTP(workload string, in *inputs, sz sizing, seed int64, seconds float64, parent string, m map[string]float64) (*e2eRun, error) {
	e, _, err := setUp(workload, in, sz, parent)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r, err := newRunner(workload, in, sz, e, seed)
	if err != nil {
		return nil, err
	}
	var watcher *applyWatcher
	if workload == "replicate" {
		r.extraRead = true
		watcher = watchApplied(e.follower.mgr, in.Sessions[0].Name)
	}
	o0, b0, g0 := runtimeCounters()
	steps, _, err := r.run(seconds)
	o1, b1, g1 := runtimeCounters()
	if watcher != nil {
		watcher.halt()
	}
	if err != nil {
		return nil, err
	}
	n := float64(len(steps))
	m["runtime.allocs_per_step"] = float64(o1-o0) / n
	m["runtime.alloc_kb_per_step"] = float64(b1-b0) / 1e3 / n
	m["runtime.gc_per_100_steps"] = float64(g1-g0) * 100 / n

	c := r.counts
	cs := float64(c.Steps)
	m["core.feature_computes"] = float64(c.FeatureComputes) / cs
	m["core.memo_hits"] = float64(c.MemoHits) / cs
	m["core.pred_evals"] = float64(c.PredEvals) / cs
	m["incremental.pairs_examined"] = float64(c.PairsExamined) / cs
	m["incremental.delta_pairs"] = float64(c.DeltaPairs) / cs
	var resp float64
	for _, st := range steps {
		resp += float64(st.respBytes)
	}
	m["server.response_kb"] = resp / 1e3 / n

	if workload == "replicate" {
		m["replica.bootstrap_ms"] = ms(e.bootstrap)
		var apply, wait []float64
		for _, st := range steps {
			if t, ok := watcher.seen[st.seq]; ok && st.seq > 0 {
				apply = append(apply, ms(max(t.Sub(st.ack), 0)))
			}
			wait = append(wait, ms(st.read-st.plainRead))
		}
		m["replica.apply_ms"] = median(apply)
		m["replica.wait_ms"] = median(wait)
		var rb uint64
		for _, s := range e.follower.mgr.Status() {
			rb += s.Rebootstraps
		}
		m["replica.rebootstraps"] = float64(rb)
	}
	run := &e2eRun{steps: steps}
	run.checkErr = r.checkOutputs()
	return run, nil
}

// direct holds the direct pass's sessions in a session store
// configured as the server configures its own.
type direct struct {
	rec   *recorder
	store *sessionstore.Store
	lib   *sim.Library

	computeNs      []float64
	snapshotKB     []float64
	compactMs      []float64
	compactions    int
	walBytes       []float64
	acquires, hits int
	// oldB is table B's length before the last append, for the delta
	// blocking probe.
	oldB int
}

func newDirect(dir, workload string, in *inputs, sz sizing) (*direct, error) {
	cfg := productionConfig()
	d := &direct{rec: newRecorder(), store: sessionstore.New(sessionstore.Config{Core: cfg}), lib: sim.Standard()}
	dur, err := durability(dir)
	if err != nil {
		return nil, err
	}
	if err := d.store.EnableDurability(dur); err != nil {
		return nil, err
	}
	d.rec.on = true
	for _, s := range in.Sessions {
		if err := d.open(s, cfg); err != nil {
			d.store.CloseAll()
			return nil, fmt.Errorf("direct open %s: %w", s.Name, err)
		}
	}
	if workload == "churn" {
		total := d.store.Counters().ResidentBytes
		d.store.SetLimits(0, int64(float64(total)*sz.ChurnBudget), 0)
	}
	return d, nil
}

// open builds one session the way POST /v1/sessions does, one span per
// layer call, then measures the kernels and the snapshot codec.
func (d *direct) open(s *sessionInput, cfg core.Config) error {
	var (
		a, b  *table.Table
		f     rule.Function
		pairs []table.Pair
		c     *core.Compiled
		sess  *incremental.Session
		err   error
	)
	blocker := block.AttrEquivalence{Attr: s.Block}
	d.rec.timed("table.ReadCSV", func() {
		if a, err = table.ReadCSV(strings.NewReader(s.CSVA), "A"); err == nil {
			b, err = table.ReadCSV(strings.NewReader(s.CSVB), "B")
		}
	})
	if err != nil {
		return err
	}
	if d.rec.timed("rule.ParseFunction", func() { f, err = rule.ParseFunction(s.DSL) }); err != nil {
		return err
	}
	if d.rec.timed("block.Pairs", func() { pairs, err = blocker.Pairs(a, b) }); err != nil {
		return err
	}
	if d.rec.timed("core.Compile", func() { c, err = core.Compile(f, sim.Standard(), a, b) }); err != nil {
		return err
	}
	d.rec.timed("incremental.Run", func() {
		sess = incremental.NewSessionConfig(c, pairs, cfg)
		sess.Blocker = blocker
		err = sess.Run(context.Background())
	})
	if err != nil {
		return err
	}

	// Feature kernels on a fixed pair sample: every bound feature over
	// the first pairs.
	sample := pairs[:min(len(pairs), 500)]
	var sink float64
	t0 := time.Now()
	for fi := range c.Features {
		for _, p := range sample {
			sink += c.ComputeFeature(fi, p)
		}
	}
	if n := len(c.Features) * len(sample); n > 0 && sink == sink {
		d.computeNs = append(d.computeNs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}

	var buf bytes.Buffer
	if d.rec.timed("persist.Save", func() { err = persist.Save(&buf, sess) }); err != nil {
		return err
	}
	d.snapshotKB = append(d.snapshotKB, float64(buf.Len())/1e3)
	if d.rec.timed("persist.Load", func() { _, err = persist.Load(bytes.NewReader(buf.Bytes()), d.lib, a.Clone(), b.Clone()) }); err != nil {
		return err
	}
	d.rec.timed("sessionstore.Admit", func() { err = d.store.Admit(s.Name, sess, a, b) })
	return err
}

func (d *direct) acquire(name string, mode sessionstore.Mode) (*sessionstore.Handle, error) {
	if info, ok := d.store.Info(name); ok && info.State == sessionstore.StateResident {
		d.hits++
	}
	d.acquires++
	var h *sessionstore.Handle
	var err error
	d.rec.timed("sessionstore.Acquire", func() { h, err = d.store.Acquire(name, mode) })
	return h, err
}

func resolveRule(sess *incremental.Session, req server.EditRequest) (int, error) {
	if req.RuleName == "" {
		return req.Rule, nil
	}
	for ri := range sess.M.C.Rules {
		if sess.M.C.Rules[ri].Name == req.RuleName {
			return ri, nil
		}
	}
	return 0, fmt.Errorf("no rule named %q", req.RuleName)
}

// write replays one step's write: acquire, the incremental op, the
// journal append, release (which may evict).
func (d *direct) write(act action) (time.Duration, error) {
	t0 := time.Now()
	id := d.rec.begin("step.write")
	defer d.rec.end(id)
	h, err := d.acquire(act.session.Name, sessionstore.ModeEdit)
	if err != nil {
		return 0, err
	}
	sess := h.Session()
	// The record the handler journals; wal.Apply runs the same
	// incremental call the handler makes for it.
	var rec wal.Record
	span := "incremental.AddRecords"
	if act.batch != nil {
		_, b := h.Tables()
		d.oldB = b.Len()
		rec = wal.Record{Op: "record_append", RecsB: append([]table.Record(nil), act.batch...)}
		err = sess.ValidateAppend(nil, rec.RecsB)
	} else {
		var ri int
		ri, err = resolveRule(sess, act.edit)
		src := act.edit.Predicate
		if act.edit.Op == "add_rule" {
			src = act.edit.RuleSrc
		}
		rec = wal.Record{Op: act.edit.Op, Rule: ri, Pred: act.edit.Pred, Threshold: act.edit.Threshold, Src: src}
		span = "incremental." + act.edit.Op
	}
	if err == nil {
		d.rec.timed(span, func() { err = wal.Apply(sess, rec) })
	}
	if err != nil {
		h.Release()
		return 0, err
	}
	before := h.JournalBytes()
	w0 := time.Now()
	d.rec.timed("wal.RecordEdit", func() { h.RecordEdit(rec) })
	wd := time.Since(w0)
	if after := h.JournalBytes(); after > before {
		d.walBytes = append(d.walBytes, float64(after-before))
	} else {
		// The append crossed the compaction threshold: snapshot plus
		// journal rotation ran inside it.
		d.compactions++
		d.compactMs = append(d.compactMs, ms(wd))
	}
	ev := d.store.Counters().EvictedTotal
	r0 := time.Now()
	d.rec.timed("sessionstore.Release", h.Release)
	if d.store.Counters().EvictedTotal > ev {
		// The release evicted: persist.Compact and wal.CompactRewrite
		// of the least recently used sessions ran inside it.
		d.compactions++
		d.compactMs = append(d.compactMs, ms(time.Since(r0)))
	}
	return time.Since(t0), nil
}

// read replays the inspect read: the first match page and the stats.
func (d *direct) read(name string) (time.Duration, error) {
	t0 := time.Now()
	id := d.rec.begin("step.read")
	defer d.rec.end(id)
	h, err := d.acquire(name, sessionstore.ModeRead)
	if err != nil {
		return 0, err
	}
	d.rec.timed("server.inspect", func() {
		sess := h.Session()
		a, b := h.Tables()
		page := server.MatchPage{Total: sess.MatchCount()}
		for pi := 0; pi < len(sess.M.Pairs) && len(page.Matches) < 100; pi++ {
			if !sess.St.Matched.Get(pi) {
				continue
			}
			p := sess.M.Pairs[pi]
			owner := ""
			for ri := range sess.M.C.Rules {
				if sess.St.RuleTrue[ri].Get(pi) {
					owner = sess.M.C.Rules[ri].Name
					break
				}
			}
			page.Matches = append(page.Matches, server.MatchedPair{Pair: pi, IDA: a.Records[p.A].ID, IDB: b.Records[p.B].ID, Rule: owner})
		}
		_, _ = sess.MemoryBytes()
		_ = h.Lifecycle()
	})
	h.Release()
	return time.Since(t0), nil
}

// deltaProbe times delta blocking of the last appended batch on the
// session's own tables, outside the step (the append ran it once
// already, inside incremental.AddRecords).
func (d *direct) deltaProbe(name string) error {
	h, err := d.store.Acquire(name, sessionstore.ModeRead)
	if err != nil {
		return err
	}
	defer h.Release()
	a, b := h.Tables()
	d.rec.timed("block.PairsDelta", func() { _, err = h.Session().Blocker.PairsDelta(a, b, a.Len(), d.oldB) })
	return err
}

// ruleInfos is the GET .../rules view of a session's rule set.
func ruleInfos(sess *incremental.Session) []server.RuleInfo {
	out := make([]server.RuleInfo, len(sess.M.C.Rules))
	for ri := range sess.M.C.Rules {
		cr := &sess.M.C.Rules[ri]
		info := server.RuleInfo{Index: ri, Name: cr.Name, Preds: make([]server.PredInfo, len(cr.Preds))}
		for pj := range cr.Preds {
			p := &cr.Preds[pj]
			feat := sess.M.C.Features[p.Feat].Feature
			info.Preds[pj] = server.PredInfo{Index: pj, Key: p.Key, Sim: feat.Sim, AttrA: feat.AttrA, AttrB: feat.AttrB,
				Op: p.Op.String(), Threshold: p.Threshold}
		}
		out[ri] = info
	}
	return out
}

// replay runs the direct pass over as many steps as the HTTP pass ran
// and fills the remaining metrics.
func (d *direct) replay(workload string, in *inputs, sz sizing, seed int64, httpSteps []step, m map[string]float64) error {
	setup := d.rec.spans
	self := selfTimes(setup)
	sum := func(name string) float64 {
		t := 0.0
		for _, x := range selfByName(setup, self, name) {
			t += x
		}
		return t
	}
	m["table.parse_ms"] = sum("table.ReadCSV")
	m["rule.parse_ms"] = sum("rule.ParseFunction")
	m["block.pairs_ms"] = sum("block.Pairs")
	m["core.compile_ms"] = sum("core.Compile")
	m["core.run_ms"] = sum("incremental.Run")
	m["persist.save_ms"] = median(selfByName(setup, self, "persist.Save"))
	m["persist.load_ms"] = median(selfByName(setup, self, "persist.Load"))
	m["persist.snapshot_kb"] = median(d.snapshotKB)
	m["sim.compute_ns"] = median(d.computeNs)

	rules := map[string][]server.RuleInfo{}
	for _, s := range in.Sessions {
		h, err := d.store.Acquire(s.Name, sessionstore.ModeRead)
		if err != nil {
			return err
		}
		rules[s.Name] = ruleInfos(h.Session())
		h.Release()
	}
	sc := newScript(workload, in, sz, seed, rules)
	d.acquires, d.hits = 0, 0
	c0 := d.store.Counters()
	round := roundSteps(workload)
	var tracedRounds, plainRounds, serverW, serverR []float64
	var roundSum float64
	for i := range httpSteps {
		act, ok := sc.next()
		if !ok {
			return fmt.Errorf("direct replay ran out of script at step %d", i)
		}
		traced := (i/round)%2 == 1
		d.rec.on, d.rec.step = traced, i
		w, err := d.write(act)
		if err != nil {
			return fmt.Errorf("direct step %d: %w", i, err)
		}
		r, err := d.read(act.session.Name)
		if err != nil {
			return fmt.Errorf("direct step %d: %w", i, err)
		}
		if traced && act.batch != nil {
			if err := d.deltaProbe(act.session.Name); err != nil {
				return err
			}
		}
		roundSum += ms(w + r)
		if (i+1)%round == 0 {
			if traced {
				tracedRounds = append(tracedRounds, roundSum)
			} else {
				plainRounds = append(plainRounds, roundSum)
			}
			roundSum = 0
		}
		if !traced {
			hs := httpSteps[i]
			serverW = append(serverW, ms(hs.write-w))
			hr := hs.read
			if workload == "replicate" {
				hr = hs.plainRead // the barrier read waits on replication, not on the server
			}
			serverR = append(serverR, ms(hr-r))
		}
	}
	d.rec.on = false
	c1 := d.store.Counters()
	n := float64(len(httpSteps))

	spans := d.rec.spans
	self = selfTimes(spans)
	for op, name := range editOps {
		m[name] = median(selfByName(spans, self, "incremental."+op))
	}
	m["incremental.append_ms"] = median(selfByName(spans, self, "incremental.AddRecords"))
	m["block.delta_ms"] = median(selfByName(spans, self, "block.PairsDelta"))
	m["wal.append_ms"] = median(selfByName(spans, self, "wal.RecordEdit"))
	m["sessionstore.acquire_ms"] = median(selfByName(spans, self, "sessionstore.Acquire"))
	m["wal.bytes_per_write"] = median(d.walBytes)
	m["wal.compact_ms"] = median(d.compactMs)
	m["wal.compactions"] = float64(d.compactions) * 100 / n
	m["sessionstore.evictions"] = float64(c1.EvictedTotal-c0.EvictedTotal) * 100 / n
	m["sessionstore.reloads"] = float64(c1.ReloadedTotal-c0.ReloadedTotal) * 100 / n
	m["sessionstore.resident_hits"] = 100 * float64(d.hits) / float64(max(d.acquires, 1))
	m["server.write_ms"] = median(serverW)
	m["server.read_ms"] = median(serverR)
	if len(plainRounds) > 0 && len(tracedRounds) > 0 {
		m["trace.overhead_pct"] = 100 * (median(tracedRounds)/median(plainRounds) - 1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced %d of %d rounds; %d spans\n", len(tracedRounds), len(tracedRounds)+len(plainRounds), len(d.rec.spans))
	return nil
}
