package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"time"

	"rulematch/internal/server"
	"rulematch/internal/table"
)

// workCounts are the deterministic work units of the first
// sizing.CountSteps steps of a run: for one seed they repeat exactly,
// so a change can state a count change exactly.
type workCounts struct {
	Steps           int   `json:"steps"`
	FeatureComputes int64 `json:"core.feature_computes"`
	MemoHits        int64 `json:"core.memo_hits"`
	PredEvals       int64 `json:"core.pred_evals"`
	PairsExamined   int64 `json:"incremental.pairs_examined"`
	DeltaPairs      int64 `json:"incremental.delta_pairs"`
	JournalBytes    int64 `json:"wal.journal_bytes"`
	JournalWrites   int64 `json:"wal.journaled_writes"`
	ResidentBytes   int64 `json:"resident_bytes"`
}

func (c *workCounts) addReport(r *server.OpReport) {
	c.FeatureComputes += r.Stats.FeatureComputes
	c.MemoHits += r.Stats.MemoHits
	c.PredEvals += r.Stats.PredEvals
	c.PairsExamined += int64(r.PairsExamined)
	c.DeltaPairs += int64(r.PairsAdded)
}

// step is one timed closed-loop step: a write and the read after it.
type step struct {
	op          string // the write's op
	write, read time.Duration
	plainRead   time.Duration // replicate, traced run: follower read without barrier
	ack         time.Time     // when the write was acknowledged
	seq         uint64        // the write's journal sequence
	ops, failed int
	respBytes   int // bytes of the read responses
}

// runner drives one workload's script against a set-up env over HTTP.
type runner struct {
	workload string
	in       *inputs
	sz       sizing
	env      *env
	script   *script
	// journal is each session's journal size at its last stats read.
	journal map[string]int64
	counts  workCounts
	// appended are the ingest rows acknowledged so far.
	appended []table.Record
	// extraRead adds a plain follower read after the barrier read on
	// replicate, for the traced run's barrier-wait figure.
	extraRead bool
	// heapEvery is the least time between two live-heap samples in the
	// loop, which takes one more after it; 0 takes none, so that the
	// traced run's GC count holds the program's own collections only.
	heapEvery time.Duration
}

// roundSteps is the length of a whole round of the script; a run
// always stops on a round boundary.
func roundSteps(workload string) int {
	if workload == "ingest" {
		return 1
	}
	return editCycle
}

func newRunner(workload string, in *inputs, sz sizing, e *env, seed int64) (*runner, error) {
	r := &runner{workload: workload, in: in, sz: sz, env: e, journal: map[string]int64{}}
	rules := map[string][]server.RuleInfo{}
	for _, s := range in.Sessions {
		var rl server.RuleList
		if _, _, err := e.do(http.MethodGet, e.sessionURL(e.primary.base, s.Name)+"/rules", nil, http.StatusOK, &rl); err != nil {
			return nil, err
		}
		rules[s.Name] = rl.Rules
		var st server.StatsResponse
		if _, _, err := e.do(http.MethodGet, e.sessionURL(e.primary.base, s.Name)+"/stats", nil, http.StatusOK, &st); err != nil {
			return nil, err
		}
		r.journal[s.Name] = st.JournalBytes
	}
	r.script = newScript(workload, in, sz, seed, rules)
	return r, nil
}

// loopStats are the figures sampled outside the steps' timing.
type loopStats struct {
	loop     time.Duration   // wall time of the loop minus the heap samples
	rounds   []time.Duration // wall time of each whole round
	heap     []float64       // live heap after a forced GC, bytes
	resident []float64       // store resident bytes after each step
}

// run executes steps until seconds have passed, the current round is
// whole and the count window is full, or the ingest hold-out is
// exhausted. At round ends, at most every heapEvery, it samples the
// live heap after a forced GC; that time is not loop time.
func (r *runner) run(seconds float64) ([]step, loopStats, error) {
	var steps []step
	var ls loopStats
	start := time.Now()
	var paused time.Duration
	lastHeap, roundStart := start, start
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	round := roundSteps(r.workload)
	for len(steps) < r.sz.CountSteps || len(steps)%round != 0 || time.Now().Add(-paused).Before(deadline) {
		act, ok := r.script.next()
		if !ok {
			break
		}
		st, err := r.step(act, len(steps) < r.sz.CountSteps)
		if err != nil {
			return nil, ls, err
		}
		steps = append(steps, st)
		resident := r.env.primary.srv.Store().Counters().ResidentBytes
		ls.resident = append(ls.resident, float64(resident))
		if len(steps) == r.sz.CountSteps {
			r.counts.Steps = len(steps)
			r.counts.ResidentBytes = resident
		}
		if len(steps)%round != 0 {
			continue
		}
		ls.rounds = append(ls.rounds, time.Since(roundStart))
		if r.heapEvery > 0 && time.Since(lastHeap) >= r.heapEvery {
			t := time.Now()
			ls.heap = append(ls.heap, float64(liveHeapBytes()))
			lastHeap = time.Now()
			paused += lastHeap.Sub(t)
		}
		roundStart = time.Now()
	}
	if len(steps) < r.sz.CountSteps {
		return nil, ls, fmt.Errorf("%s: only %d steps ran; the work counts need %d", r.workload, len(steps), r.sz.CountSteps)
	}
	ls.loop = time.Since(start) - paused
	if r.heapEvery > 0 {
		ls.heap = append(ls.heap, float64(liveHeapBytes()))
	}
	return steps, ls, nil
}

// step runs one write and its read. HTTP failures count as failed
// operations; only a broken client-side invariant is an error.
func (r *runner) step(act action, count bool) (step, error) {
	e := r.env
	var st step
	s := act.session
	sURL := e.sessionURL(e.primary.base, s.Name)

	var hdr http.Header
	var werr error
	var report *server.OpReport
	t0 := time.Now()
	if act.batch != nil {
		batch := act.batch
		req := server.RecordsRequest{AppendB: make([]server.RecordRow, len(batch))}
		for i, rec := range batch {
			req.AppendB[i] = server.RecordRow{ID: rec.ID, Values: rec.Values}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return st, err
		}
		var resp server.RecordsResponse
		st.op = "record_append"
		hdr, _, werr = e.do(http.MethodPost, sURL+"/records", body, http.StatusOK, &resp)
		st.write = time.Since(t0)
		if werr == nil {
			r.appended = append(r.appended, batch...)
			report = resp.AppendReport
		}
	} else {
		st.op = act.edit.Op
		body, err := json.Marshal(act.edit)
		if err != nil {
			return st, err
		}
		var resp server.EditResponse
		hdr, _, werr = e.do(http.MethodPost, sURL+"/edits", body, http.StatusOK, &resp)
		st.ack = time.Now()
		st.write = st.ack.Sub(t0)
		if werr == nil {
			report = &resp.Report
		}
	}
	st.ops++
	if werr != nil {
		st.failed++
		fmt.Fprintln(os.Stderr, "perfbench: write failed:", werr)
	}
	if count && report != nil {
		r.counts.addReport(report)
	}

	t1 := time.Now()
	var stats server.StatsResponse
	if r.workload == "replicate" {
		// Read-your-write at the follower: the barrier holds the read
		// until the follower has applied the edit's sequence.
		q := ""
		if hdr != nil {
			seq, err := seqOf(hdr)
			if err != nil {
				return st, err
			}
			st.seq = seq
			q = "?consistent=" + url.QueryEscape(fmt.Sprint(seq))
		}
		_, n, err := e.do(http.MethodGet, e.sessionURL(e.follower.base, s.Name)+"/stats"+q, nil, http.StatusOK, &stats)
		st.read = time.Since(t1)
		st.respBytes += n
		st.ops++
		if err != nil {
			st.failed++
			fmt.Fprintln(os.Stderr, "perfbench: read failed:", err)
		}
		if count && werr == nil {
			r.counts.JournalWrites++
		}
		if r.extraRead {
			t2 := time.Now()
			_, _, err := e.do(http.MethodGet, e.sessionURL(e.follower.base, s.Name)+"/stats", nil, http.StatusOK, nil)
			st.plainRead = time.Since(t2)
			st.ops++
			if err != nil {
				st.failed++
			}
		}
		return st, nil
	}
	var page server.MatchPage
	_, n1, err1 := e.do(http.MethodGet, sURL+"/matches?limit=100", nil, http.StatusOK, &page)
	_, n2, err2 := e.do(http.MethodGet, sURL+"/stats", nil, http.StatusOK, &stats)
	st.read = time.Since(t1)
	st.respBytes = n1 + n2
	st.ops += 2
	for _, err := range []error{err1, err2} {
		if err != nil {
			st.failed++
			fmt.Fprintln(os.Stderr, "perfbench: read failed:", err)
		}
	}
	if err2 == nil {
		// Journal growth per acknowledged write; a compaction or an
		// eviction in between rotates the journal, so that step
		// contributes no sample.
		if grown := stats.JournalBytes - r.journal[s.Name]; count && werr == nil && grown > 0 {
			r.counts.JournalBytes += grown
			r.counts.JournalWrites++
		}
		r.journal[s.Name] = stats.JournalBytes
	}
	return st, nil
}

// finalCounts returns the work counts of the count window.
func (r *runner) finalCounts() workCounts { return r.counts }

// liveHeapBytes returns the live heap after two forced GCs: the second
// empties the sync.Pool victim caches, so pooled buffers (encoding/json
// keeps the last large response's buffer) do not count.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// matchPairs pages through GET .../matches on base and returns the
// matched (idA, idB) pairs.
func (e *env) matchPairs(base, name string) (map[[2]string]bool, error) {
	out := map[[2]string]bool{}
	cursor := ""
	for {
		u := e.sessionURL(base, name) + "/matches?limit=1000"
		if cursor != "" {
			u += "&cursor=" + url.QueryEscape(cursor)
		}
		var page server.MatchPage
		if _, _, err := e.do(http.MethodGet, u, nil, http.StatusOK, &page); err != nil {
			return nil, err
		}
		for _, m := range page.Matches {
			out[[2]string{m.IDA, m.IDB}] = true
		}
		if page.NextCursor == "" {
			if len(out) != page.Total {
				return nil, fmt.Errorf("%s: paged %d matches, total says %d", name, len(out), page.Total)
			}
			return out, nil
		}
		cursor = page.NextCursor
	}
}

// checkOutputs verifies the workload's final outputs: every session's
// match set against the independent oracle, the follower's snapshot
// against the primary's on replicate, and eviction plus reload on
// churn.
func (r *runner) checkOutputs() error {
	e := r.env
	for _, s := range r.in.Sessions {
		var rl server.RuleList
		if _, _, err := e.do(http.MethodGet, e.sessionURL(e.primary.base, s.Name)+"/rules", nil, http.StatusOK, &rl); err != nil {
			return err
		}
		got, err := e.matchPairs(e.primary.base, s.Name)
		if err != nil {
			return err
		}
		b := s.B
		if len(r.appended) > 0 {
			b = s.B.Clone()
			for _, rec := range r.appended {
				if _, err := b.AppendRecord(rec); err != nil {
					return err
				}
			}
		}
		want, err := oracleMatches(s.A, b, s.A, s.B, s.Block, rl.Rules)
		if err != nil {
			return err
		}
		if err := compareMatches(got, want); err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
	}
	switch r.workload {
	case "replicate":
		s := r.in.Sessions[0]
		var st server.StatsResponse
		if _, _, err := e.do(http.MethodGet, e.sessionURL(e.primary.base, s.Name)+"/stats", nil, http.StatusOK, &st); err != nil {
			return err
		}
		want, err := e.snapshot(e.primary.base, s.Name, "")
		if err != nil {
			return err
		}
		got, err := e.snapshot(e.follower.base, s.Name, fmt.Sprintf("?consistent=%d", st.Seq))
		if err != nil {
			return err
		}
		if string(got) != string(want) {
			return fmt.Errorf("follower snapshot differs from the primary's (%d vs %d bytes)", len(got), len(want))
		}
	case "churn":
		c := e.primary.srv.Store().Counters()
		if c.EvictedTotal == 0 || c.ReloadedTotal == 0 {
			return fmt.Errorf("churn: %d evictions and %d reloads; both must be above zero", c.EvictedTotal, c.ReloadedTotal)
		}
	}
	return nil
}

func (e *env) snapshot(base, name, query string) ([]byte, error) {
	resp, err := e.client.Get(e.sessionURL(base, name) + "/snapshot" + query)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("snapshot of %s: status %d", name, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
