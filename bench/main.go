// Command bench is the repository benchmark: five closed-loop workloads
// over a real two-daemon lispd pair on loopback and over the simulator,
// six end-to-end metrics per workload, and a traced run that adds the
// per-layer numbers. It builds the system under test in-process, touches
// nothing outside its own directory, and measures every layer from
// outside: by timing calls into public functions, by reading the counters
// the daemons already export, and by recording spans around its own calls.
// README.md has the catalogue.
//
//	go run . -workload fwd_small -seed 1            one untraced run
//	go run . -workload flow_setup -seed 1 -trace 1  the per-layer run
//	go run . -selfcheck                             A/A: two interleaved sets
//
// The last line of standard output is one JSON object with the run's
// correctness verdict and its metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// sizing fixes how much work each workload does per round and in set-up.
// fullSizing is the benchmark; the smoke test shrinks it so every
// workload runs in a fraction of a second.
type sizing struct {
	// fwd_small: flows resolved in set-up, warm-up packets, round size.
	fwdFlows, fwdWarmup, fwdRound int
	// flow_setup: names × sources flows, round size.
	setupNames, setupSources, setupRound int
	// sim_hot: segments per batch, batches per round, warm-up batches.
	hotBatch, hotRoundBatches, hotWarmupBatches int
	// sim_setup: world shape and set-up rounds.
	simDomains, simHosts, simWarmRounds int
	// opTimeout fails a real-path op that has not completed.
	opTimeout time.Duration
	// probeRounds × probeRound is the least one layer probe measures.
	probeRounds int
	probeRound  time.Duration
}

var fullSizing = sizing{
	fwdFlows: 1024, fwdWarmup: 200_000, fwdRound: 5000,
	setupNames: 2048, setupSources: 8, setupRound: 1000,
	hotBatch: 1000, hotRoundBatches: 100, hotWarmupBatches: 1500,
	simDomains: 16, simHosts: 4, simWarmRounds: 1,
	opTimeout:   2 * time.Second,
	probeRounds: 20, probeRound: 10 * time.Millisecond,
}

// metric is one named reading.
type metric struct {
	name  string
	unit  string
	value float64
}

// roundRec is one round of a timed window: the ops it completed, what they
// cost, and the median op latency inside it (raw nanoseconds; 0 on rounds
// that record none).
type roundRec struct {
	ops  int64
	cost slice
	p50  float64
}

// windowResult is what one timed window of a workload produced.
type windowResult struct {
	attempted, failed int64
	// rounds are behind ops_per_s and cpu_us_per_op, latRounds behind
	// latency_p50_us: the sat and the lat phase on the real path, the
	// same rounds on the simulator.
	rounds, latRounds []roundRec
	// lat is the raw op latency histogram of the whole window, for the
	// tail percentile.
	lat *hist
	// mem is what the Go heap was charged over the costOps ops it is
	// divided by (the sat phase on the real path, the whole window on the
	// simulator).
	mem     memDelta
	costOps int64
	// layer holds the workload's own per-layer readings (counter deltas,
	// span-derived medians).
	layer map[string]float64
	// notes are correctness checks that failed; any note fails the run.
	notes []string
	// info lines are printed with the run (digests, exact counts).
	info []string
}

// benchWorkload is one benchmark workload: set-up brings every table to its
// final size and warms it, window measures for about d in whole rounds.
// Both lap the meter the workload was built with, every round and every
// few hundred milliseconds of set-up. tr is nil on untraced windows.
type benchWorkload interface {
	setup() error
	window(d time.Duration, tr *tracer) (windowResult, error)
	// stamp describes the shape actually used (round sizes, flow counts).
	stamp() string
	close()
}

func newWorkload(name string, seed int64, sz sizing, m *meter) (benchWorkload, error) {
	switch name {
	case "fwd_small":
		return newFwdSmall(seed, sz, m), nil
	case "flow_setup":
		return newFlowSetup(seed, sz, m), nil
	case "sim_hot":
		return newSimHot(seed, sz, m), nil
	case "sim_setup":
		return newSimSetup(seed, sz, m), nil
	case "sim_suite":
		return newSimSuite(seed, m), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, allWorkloads)
}

// runOutput is the JSON object a run ends with.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile by the exclusive method
// (Python's statistics.quantiles(v, n=4)), which is what the driver uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		n := len(s)
		pos := p * float64(n+1)
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	if len(s) < 2 {
		return s[0], s[0]
	}
	return at(0.25), at(0.75)
}

// iqrShare is (q3 − q1) ÷ median, the spread estimate the driver gates.
func iqrShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the timed window runs on the last instance.
const setupRepeats = 3

// run executes one benchmark run and prints it to w. It returns the JSON
// object so the smoke test and the self-check can read it without
// re-parsing text.
func run(w io.Writer, name string, seed int64, seconds float64, trace bool, sz sizing) (runOutput, error) {
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	window := time.Duration(seconds * float64(time.Second))

	m, err := newMeter()
	if err != nil {
		return runOutput{}, err
	}
	defer m.close()

	fmt.Fprintf(w, "# bench %s seed=%d window=%v trace=%v\n", name, seed, window, trace)
	fmt.Fprintf(w, "# env nproc=%d GOMAXPROCS=%d %s %s/%s link=loopback (two in-process lispd daemons, real UDP datagrams) sim=serial,1-shard\n",
		runtime.NumCPU(), procs, runtime.Version(), runtime.GOOS, runtime.GOARCH)

	var wl benchWorkload
	var setups []slice
	for i := 0; i < setupRepeats; i++ {
		if wl != nil {
			wl.close()
		}
		m.start()
		if wl, err = newWorkload(name, seed, sz, m); err != nil {
			return runOutput{}, err
		}
		if err := wl.setup(); err != nil {
			wl.close()
			return runOutput{}, fmt.Errorf("%s set-up: %w", name, err)
		}
		runtime.GC()
		m.lap()
		setups = append(setups, m.take())
	}
	fmt.Fprintf(w, "# shape %s; set up %d times\n", wl.stamp(), setupRepeats)
	defer wl.close()

	var res windowResult
	var lines []metric
	if trace {
		res, lines, err = tracedRun(w, wl, name, window, m, sz)
	} else {
		res, err = wl.window(window, nil)
		if err == nil {
			lines, err = endToEndMetrics(w, res, setups)
		}
	}
	if err == nil {
		err = m.err
	}
	if err != nil {
		return runOutput{}, err
	}

	out := runOutput{Metrics: make(map[string]metricValue)}
	for _, m := range lines {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	if !trace {
		pct, tail := res.lat.tail()
		fmt.Fprintf(w, "# latency n=%d p%g=%.6g us (raw) rounds=%d round_iqr_share=%.4f\n",
			res.lat.n, pct, tail/1e3, len(res.rounds), iqrShare(perRound(res.rounds, opsPerSecond)))
		fmt.Fprintf(w, "# host.calib_ns %.0f (median of %d reference spins; nominal %.0f)\n",
			m.spins.quantile(0.5), m.spins.n, refNominalNs)
	}
	for _, s := range res.info {
		fmt.Fprintf(w, "# %s\n", s)
	}
	for _, s := range res.notes {
		fmt.Fprintf(w, "# FAILED CHECK: %s\n", s)
	}
	fmt.Fprintf(w, "ops_attempted %d\nops_failed %d\n", res.attempted, res.failed)

	out.Attempted = max(res.attempted, 1)
	out.Failed = res.failed
	out.Correct = res.failed == 0 && len(res.notes) == 0
	return out, nil
}

// The per-round readings the gated timings are medians of, at the
// reference host speed; the raw* twins are what the clocks said.

func opsPerSecond(r roundRec) float64    { return float64(r.ops) / (r.cost.wall / 1e9) }
func rawOpsPerSecond(r roundRec) float64 { return float64(r.ops) / (r.cost.rawWall / 1e9) }
func cpuUsPerOp(r roundRec) float64      { return r.cost.cpu / 1e3 / float64(r.ops) }
func rawCPUUsPerOp(r roundRec) float64   { return r.cost.rawCPU / 1e3 / float64(r.ops) }
func p50Us(r roundRec) float64           { return r.p50 / r.cost.slowdown() / 1e3 }
func rawP50Us(r roundRec) float64        { return r.p50 / 1e3 }

// perRound applies f to every round that completed an op.
func perRound(rounds []roundRec, f func(roundRec) float64) []float64 {
	out := make([]float64, 0, len(rounds))
	for _, r := range rounds {
		if r.ops > 0 && r.cost.wall > 0 {
			out = append(out, f(r))
		}
	}
	return out
}

// tracedRun is the per-layer run. It splits the window: an untraced
// quarter as the overhead reference, a traced quarter, then the layer
// probes; and writes the spans file.
func tracedRun(w io.Writer, wl benchWorkload, name string, window time.Duration, m *meter, sz sizing) (windowResult, []metric, error) {
	ref, err := wl.window(window/4, nil)
	if err != nil {
		return ref, nil, err
	}
	tr := newTracer()
	res, err := wl.window(window/4, tr)
	if err != nil {
		return res, nil, err
	}
	res.attempted += ref.attempted
	res.failed += ref.failed
	res.notes = append(ref.notes, res.notes...)
	layer := res.layer
	if untraced := median(perRound(ref.rounds, opsPerSecond)); untraced > 0 {
		layer["harness.trace_overhead_share"] = 1 - median(perRound(res.rounds, opsPerSecond))/untraced
	}
	windowLayerMetrics(layer, res)
	layer["host.calib_ns"] = m.spins.quantile(0.5)
	layer["host.slowdown"] = m.spins.quantile(0.5) / refNominalNs
	if err := runProbes(layer, tr, sz); err != nil {
		return res, nil, err
	}
	if layer["proc.peak_rss_mb"], err = procStatusMB("VmHWM"); err != nil {
		return res, nil, err
	}
	path := filepath.Join("out", name+".spans.json")
	if err := tr.write(path); err != nil {
		return res, nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(w, "# spans %s (%d spans, %d dropped)\n", path, len(tr.spans), tr.dropped)
	lines := make([]metric, 0, len(perLayer))
	for _, d := range perLayer {
		lines = append(lines, metric{d.name, d.unit, layer[d.name]})
	}
	return res, lines, nil
}

// endToEndMetrics derives the six gated numbers from a window and the
// run's set-ups, and prints the raw readings behind the timings.
func endToEndMetrics(w io.Writer, r windowResult, setups []slice) ([]metric, error) {
	rss, err := settledRSSMB()
	if err != nil {
		return nil, err
	}
	var setupS, rawSetupS []float64
	for _, s := range setups {
		setupS = append(setupS, s.wall/1e9)
		rawSetupS = append(rawSetupS, s.rawWall/1e9)
	}
	fmt.Fprintf(w, "# raw setup_s=%.6g ops_per_s=%.6g latency_p50_us=%.6g cpu_us_per_op=%.6g (as the clocks read; the gated values are at the reference host speed)\n",
		median(rawSetupS), median(perRound(r.rounds, rawOpsPerSecond)),
		median(perRound(r.latRounds, rawP50Us)), median(perRound(r.rounds, rawCPUUsPerOp)))
	return []metric{
		{"setup_s", "s", median(setupS)},
		{"ops_per_s", "1/s", median(perRound(r.rounds, opsPerSecond))},
		{"latency_p50_us", "us", median(perRound(r.latRounds, p50Us))},
		{"cpu_us_per_op", "us", median(perRound(r.rounds, cpuUsPerOp))},
		{"allocs_per_op", "count", float64(r.mem.mallocs) / float64(max(r.costOps, 1))},
		{"rss_mb", "MB", rss},
	}, nil
}

// windowLayerMetrics adds the readings every workload's traced window
// yields: the process split of its cost and the tail and spread of its
// timings. The split is raw: it sums what getrusage charged the rounds.
func windowLayerMetrics(layer map[string]float64, r windowResult) {
	var cost slice
	var roundOps int64
	for _, rd := range r.rounds {
		cost.add(rd.cost)
		roundOps += rd.ops
	}
	ops := float64(max(roundOps, 1))
	layer["proc.user_cpu_us_per_op"] = cost.rawUser / 1e3 / ops
	layer["proc.sys_cpu_us_per_op"] = (cost.rawCPU - cost.rawUser) / 1e3 / ops
	layer["proc.ctx_switches_per_op"] = float64(cost.ctxSwitches) / ops
	ops = float64(max(r.costOps, 1))
	layer["proc.bytes_per_op"] = float64(r.mem.allocBytes) / ops
	layer["proc.gc_cycles"] = float64(r.mem.gcCycles)
	layer["proc.gc_pause_ms"] = float64(r.mem.gcPause.Nanoseconds()) / 1e6
	pct, tail := r.lat.tail()
	layer["e2e.latency_tail_us"] = tail / 1e3
	layer["e2e.latency_tail_pct"] = pct
	layer["e2e.round_iqr_share"] = iqrShare(perRound(r.rounds, opsPerSecond))
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: fwd_small, flow_setup, sim_hot, sim_setup, sim_suite")
		seed      = flag.Int64("seed", 1, "workload seed: shuffles flow order and seeds the sim worlds")
		seconds   = flag.Float64("seconds", 20, "length of the timed window in seconds")
		trace     = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and a spans file instead of the end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload (or just -workload) in two interleaved sets and compare their medians against the bounds")
	)
	flag.Parse()
	if *selfcheck {
		names := workloadNames
		if *name != "" {
			names = []string{*name}
		}
		os.Exit(selfCheck(os.Stdout, names, *seconds))
	}
	out, err := run(os.Stdout, *name, *seed, *seconds, *trace != 0, fullSizing)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}
