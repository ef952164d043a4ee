// Command perfbench is the repository benchmark. It drives the
// emserve HTTP service in process, built exactly as emserve builds it
// by default (cliflags engine defaults, durable datadir, fsync=always),
// with one closed-loop client per workload:
//
//	debug      Figure 6 rule edits + inspect reads on one products session
//	ingest     appended B-row batches + inspect reads, fixed rule set
//	replicate  threshold edits at a primary + read-your-write at a follower
//	churn      edits + reads over six sessions under a memory budget
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload debug --seed 1 --seconds 10 --trace 0
//	perfbench --workload ingest --trace 1        # per-layer metrics
//	perfbench --workload churn --repeat 10       # spread over 10 processes
//
// Every run checks its outputs against an independent oracle and
// prints, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "debug", "workload: debug, ingest, replicate or churn")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "length of the timed loop")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		repeat   = flag.Int("repeat", 0, "run the workload this many times in fresh processes (seeds seed, seed+1, ...) and print each end-to-end metric's spread")
		workdir  = flag.String("workdir", ".bench_build", "directory for datadirs; removed again at exit")
	)
	flag.Parse()
	if *repeat > 0 {
		if err := repeatRuns(*workload, *seed, *seconds, *repeat, *workdir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(*workload, standardSizing, *seed, *seconds, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(1)
		}
	}
	out, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and returns its result line. A non-nil
// result with an error is a run whose outputs failed the checks.
func run(workload string, sz sizing, seed int64, seconds float64, traced bool, workdir string) (*result, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	parent, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(parent)
	t0 := time.Now()
	in, err := genInputs(workload, sz, seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s inputs generated in %.2fs\n", workload, time.Since(t0).Seconds())
	fmt.Println(configHeader(workload, parent))
	if traced {
		return runTraced(workload, in, sz, seed, seconds, parent)
	}
	rep, err := runE2E(workload, in, sz, seed, seconds, parent)
	if err != nil {
		return nil, err
	}
	report, err := json.Marshal(rep.info)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(report))
	return rep.res, rep.checkErr
}

// heapEvery spaces the untraced loop's live-heap samples. Each sample
// is two full GCs of a heap of up to ~130 MB, about 0.15 s of wall
// time; at every half second they took a fifth of a run.
const heapEvery = 2 * time.Second

// e2eRun is what one untraced run measured.
type e2eRun struct {
	res      *result
	info     map[string]any // reference figures printed before the result
	steps    []step
	checkErr error
}

// setUp builds the workload's env sz.SetupReps times and keeps the
// last; it returns the set-up durations. On churn the memory budget is
// set to a share of the sessions' total resident bytes.
func setUp(workload string, in *inputs, sz sizing, parent string) (*env, []float64, error) {
	var e *env
	var times []float64
	for i := 0; i < sz.SetupReps; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		e, err = startEnv(parent, in, workload == "replicate")
		if err != nil {
			return nil, nil, err
		}
		if workload == "churn" {
			total := e.primary.srv.Store().Counters().ResidentBytes
			e.primary.srv.SetLimits(0, int64(float64(total)*sz.ChurnBudget), 0)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, times, nil
}

func runE2E(workload string, in *inputs, sz sizing, seed int64, seconds float64, parent string) (*e2eRun, error) {
	e, setups, err := setUp(workload, in, sz, parent)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r, err := newRunner(workload, in, sz, e, seed)
	if err != nil {
		return nil, err
	}
	r.heapEvery = heapEvery
	steps, ls, err := r.run(seconds)
	if err != nil {
		return nil, err
	}
	disk, err := diskBytes(e.dir)
	if err != nil {
		return nil, err
	}
	var writes, reads []float64
	byOp := map[string][]float64{}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, st := range steps {
		writes = append(writes, ms(st.write))
		reads = append(reads, ms(st.read))
		byOp[st.op] = append(byOp[st.op], ms(st.write))
		res.Attempted += st.ops
		res.Failed += st.failed
	}
	opP50 := map[string]float64{}
	for op, xs := range byOp {
		opP50[op] = median(xs)
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["write_ms"] = metric{writeTime(workload, writes, byOp), "ms"}
	res.Metrics["read_p50_ms"] = metric{median(reads), "ms"}
	res.Metrics["steps_per_s"] = metric{stepsPerSecond(workload, steps, ls.rounds), "1/s"}
	res.Metrics["heap_mb"] = metric{mean(ls.heap) / 1e6, "MB"}
	res.Metrics["resident_mb"] = metric{mean(ls.resident) / 1e6, "MB"}
	res.Metrics["disk_mb"] = metric{float64(disk) / 1e6, "MB"}

	info := map[string]any{"setups_s": setups, "steps": len(steps), "loop_s": ls.loop.Seconds(), "heap_mb_samples": scaled(ls.heap, 1e-6),
		"counts": r.finalCounts(), "write_p50_ms_by_op": opP50, "write_p50_ms_all": median(writes),
		"steps_per_s_whole_loop": float64(len(steps)) / ls.loop.Seconds()}
	if q := tailQuantile(len(writes)); q > 0 {
		info["write_tail"] = map[string]float64{"quantile": q, "ms": quantile(writes, q)}
		info["read_tail"] = map[string]float64{"quantile": q, "ms": quantile(reads, q)}
	}
	if workload == "churn" {
		c := e.primary.srv.Store().Counters()
		info["evictions"], info["reloads"] = c.EvictedTotal, c.ReloadedTotal
	}
	run := &e2eRun{res: res, info: info, steps: steps}
	t0 := time.Now()
	err = r.checkOutputs()
	fmt.Fprintf(os.Stderr, "perfbench: outputs checked in %.2fs\n", time.Since(t0).Seconds())
	if err != nil {
		res.Correct = false
		run.checkErr = err
	}
	return run, nil
}

// stepsPerSecond is the steps_per_s statistic. About 3% of debug edits
// cost 100-600 ms (re-tightening re-owns pairs across later rules, with
// memo misses) and make up most of a run's time, so the whole-loop rate
// rests on a few dozen of them and moved by 30% between seeds. It is
// the rate over the steps with the slowest 5% set aside. On debug,
// where a step is short enough for the edit's fsync (see writeTime) to
// be a large share of it, it is the rate over the faster half of the
// steps. On churn, where every round deals the same session mix, it is
// the median round's rate.
func stepsPerSecond(workload string, steps []step, rounds []time.Duration) float64 {
	if workload == "churn" {
		var rates []float64
		for _, d := range rounds {
			rates = append(rates, float64(roundSteps(workload))/d.Seconds())
		}
		return median(rates)
	}
	times := make([]float64, len(steps))
	for i, st := range steps {
		times[i] = (st.write + st.read).Seconds()
	}
	sort.Float64s(times)
	kept := times[:len(times)-len(times)/20]
	if workload == "debug" {
		kept = times[:(len(times)+1)/2]
	}
	return 1 / mean(kept)
}

// writeTime is the write_ms statistic: a write round trip in the form
// that repeats between runs of each workload.
//
// Every edit is acknowledged after the journal's fsync, and fsync on a
// shared virtual disk is bimodal: ~0.25 ms, or 1-8 ms on a share of
// calls that swings between about a tenth and a half over minutes. Where
// edits are short, any median of them lands on that swing, and a low
// quantile does not. So on debug and replicate the figure is a low
// quantile; their medians stay in the reference line.
//
// The edit ops differ in cost by 10x in two clusters, so a quantile
// over all edits falls between the clusters and jumps between runs. On
// debug it is the mean of the per-op lower quartiles, each op counting
// once. Replicate's edits (threshold moves) do almost no engine work,
// so one fsync is half of each, and even the lower quartile moved with
// the slow share; it is the 10th percentile of all its edits. On churn
// about 40% of edits also reload their session, which splits every op
// the same way; every round deals the same session mix, so it is the
// median over rounds of the round's mean write. On ingest, where an
// append's engine work dwarfs the fsync, the one op's median.
func writeTime(workload string, writes []float64, byOp map[string][]float64) float64 {
	switch workload {
	case "churn":
		return median(roundMeans(writes, roundSteps(workload)))
	case "ingest":
		return median(writes)
	case "replicate":
		return quantile(writes, 0.1)
	}
	opP25 := map[string]float64{}
	for op, xs := range byOp {
		opP25[op] = quantile(xs, 0.25)
	}
	return mean(values(opP25))
}
