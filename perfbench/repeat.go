package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
)

// quartiles returns the three cut points of sorted-or-not xs by the
// exclusive method of Python's statistics.quantiles(xs, n=4), which is
// how run-to-run spreads are judged against the bounds.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// repeatRuns runs the workload n times, each in a fresh process with
// its own seed, and prints every end-to-end metric's median, quartiles,
// spread (interquartile range over median) and range.
func repeatRuns(workload string, seed int64, seconds float64, n int, workdir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var attempted, failed int
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed+int64(i)),
			"--seconds", fmt.Sprint(seconds), "--trace", "0", "--workdir", workdir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed+int64(i), err)
		}
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			last = append(last[:0], sc.Bytes()...)
		}
		var res result
		if err := json.Unmarshal(last, &res); err != nil {
			return fmt.Errorf("run %d: result line: %w", i+1, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d (seed %d): outputs failed the checks", i+1, seed+int64(i))
		}
		attempted += res.Attempted
		failed += res.Failed
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "perfbench: repeat %d/%d done\n", i+1, n)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s: %d runs, seeds %d..%d, %gs each; %d operations attempted, %d failed\n",
		workload, n, seed, seed+int64(n)-1, seconds, attempted, failed)
	fmt.Printf("%-14s %-5s %12s %12s %12s %8s %12s %12s\n", "metric", "unit", "median", "q1", "q3", "spread", "min", "max")
	for _, name := range names {
		xs := values[name]
		q1, q2, q3 := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("%-14s %-5s %12.4f %12.4f %12.4f %7.1f%% %12.4f %12.4f\n", name, units[name], q2, q1, q3, 100*spread, lo, hi)
	}
	return nil
}
