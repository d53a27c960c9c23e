package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// selfCheck is the A/A run: each named workload in two interleaved sets
// (A B A B …) of `runs` untraced runs each, on identical code, each run a
// fresh process with its own seed. For every end-to-end metric it prints
// both medians, how much worse the second is than the first, each set's
// spread ((q3 − q1) ÷ median) and the bound. It returns non-zero when a
// gap exceeds its bound, or a spread does (set-up time's spread is
// exempt) — the two conditions under which the driver refuses a
// benchmark as too noisy to gate anything.
func selfCheck(w io.Writer, names []string, seconds float64) int {
	const runs = 5 // per set: ten runs per workload, what the driver takes its spreads from
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
		return 1
	}
	failed := false
	fmt.Fprintf(w, "# selfcheck: %d workloads x 2 sets x %d runs of %gs, sets interleaved, one process and one seed per run\n",
		len(names), runs, seconds)
	fmt.Fprintf(w, "%-11s %-15s %14s %14s %8s %9s %9s %6s  %s\n",
		"workload", "metric", "median A", "median B", "gap", "spread A", "spread B", "bound", "verdict")
	for _, name := range names {
		var sets [2]map[string][]float64
		sets[0], sets[1] = make(map[string][]float64), make(map[string][]float64)
		for i := 0; i < 2*runs; i++ {
			out, err := childRun(self, name, int64(i+1), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: selfcheck: %s run %d: %v\n", name, i, err)
				return 1
			}
			if !out.Correct {
				fmt.Fprintf(w, "%s run %d: %d of %d ops failed\n", name, i, out.Failed, out.Attempted)
				failed = true
			}
			for m, v := range out.Metrics {
				sets[i%2][m] = append(sets[i%2][m], v.Value)
			}
			fmt.Fprintf(w, "# %s set %c seed %d:", name, 'A'+i%2, i+1)
			for _, d := range endToEnd {
				fmt.Fprintf(w, " %s=%.6g", d.name, out.Metrics[d.name].Value)
			}
			fmt.Fprintln(w)
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			ma, mb := median(a), median(b)
			gap := 0.0
			if ma != 0 {
				gap = (mb - ma) / ma
				if d.better == "higher" {
					gap = -gap
				}
			}
			sa, sb := iqrShare(a), iqrShare(b)
			verdict := "ok"
			if gap > d.bound {
				verdict = "GAP OVER BOUND"
			} else if d.name != "setup_s" && max(sa, sb) > d.bound {
				verdict = "SPREAD OVER BOUND"
			}
			if verdict != "ok" {
				failed = true
			}
			fmt.Fprintf(w, "%-11s %-15s %14.6g %14.6g %+7.2f%% %8.2f%% %8.2f%% %5.0f%%  %s\n",
				name, d.name, ma, mb, 100*gap, 100*sa, 100*sb, 100*d.bound, verdict)
		}
	}
	if failed {
		fmt.Fprintln(w, "# selfcheck FAILED")
		return 1
	}
	fmt.Fprintln(w, "# selfcheck ok: every gap and spread inside its bound")
	return 0
}

// childRun executes one untraced run in a fresh process and parses the
// JSON object on its last line.
func childRun(self, name string, seed int64, seconds float64) (runOutput, error) {
	var out runOutput
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return out, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return out, fmt.Errorf("last line is not the result object: %w", err)
	}
	return out, nil
}
