// Command experiments regenerates the reproduction's evaluation: every
// table of EXPERIMENTS.md's experiment index (E1-E13), printed in paper
// style.
//
// Usage:
//
//	experiments                # run everything at full scale
//	experiments -run E2        # one experiment
//	experiments -quick         # reduced scale (the test-suite settings)
//	experiments -seed 7        # change the world seed
//	experiments -seeds 1,2,3   # repeat the suite under several seeds
//	experiments -parallel      # fan independent cells across all CPUs
//	experiments -workers 4     # cap the parallel worker pool
//	experiments -shards 4      # partition each world across 4 lock-step shards
//	experiments -cps PCE-CP,ALT  # restrict to some control planes
//	experiments -markdown      # emit GitHub-flavoured tables (EXPERIMENTS.md)
//	experiments -cpuprofile cpu.out   # profile a real run (go tool pprof)
//	experiments -memprofile mem.out   # heap profile after the run
//	experiments -scenario -cps ALT -domains 4 -flows 20 -policy queue -trace
//	                           # one ad-hoc world instead of the tables
//
// -parallel distributes each experiment's independent cells (one
// simulated world each) across GOMAXPROCS goroutines and merges results
// in canonical order, so its output is byte-identical to the serial run
// for the same seeds.
//
// -shards instead parallelizes *inside* each cell: one logical world is
// partitioned into N per-shard event queues advancing in conservative
// lock-step epochs. Output is byte-identical for any shard count; the
// flag only changes how the simulation is scheduled across cores, which
// is what makes the E12-scale worlds tractable.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"github.com/pcelisp/pcelisp/internal/experiments"
	"github.com/pcelisp/pcelisp/internal/runner"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main minus the exit: every failure returns its code, so the
// deferred profile stop and file close always happen and a mistyped
// -run, -cps or -seeds cannot leave a truncated -cpuprofile behind.
func run(args []string) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	run := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	seed := fs.Int64("seed", 1, "world seed")
	seeds := fs.String("seeds", "", "comma-separated world seeds (overrides -seed)")
	quick := fs.Bool("quick", false, "reduced scale")
	parallel := fs.Bool("parallel", false, "fan each experiment's cells across all CPUs")
	workers := fs.Int("workers", 0, "worker-pool size for -parallel (0 = GOMAXPROCS)")
	cps := fs.String("cps", "", "comma-separated control planes to keep (default: all; see -list-cps)")
	listCPs := fs.Bool("list-cps", false, "list control planes and exit")
	shards := fs.Int("shards", 1, "partition each world across N lock-step shards (output is byte-identical for any N)")
	markdown := fs.Bool("markdown", false, "emit markdown tables")
	list := fs.Bool("list", false, "list experiments and exit")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	sc := scenario{}
	scenarioMode := fs.Bool("scenario", false, "run one ad-hoc world (-seed, one -cps plane, -domains, -flows, -policy, -trace) instead of the experiment tables")
	fs.IntVar(&sc.domains, "domains", 4, "-scenario: number of LISP domains")
	fs.IntVar(&sc.flows, "flows", 12, "-scenario: number of flows to run")
	fs.StringVar(&sc.policy, "policy", "drop", "-scenario: ITR miss policy, drop|queue")
	fs.BoolVar(&sc.trace, "trace", false, "-scenario: print per-packet drop events")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %-45s %s\n", e.ID, e.Title, e.Claim)
		}
		return 0
	}
	if *listCPs {
		for _, cp := range experiments.AllCPs {
			fmt.Println(cp)
		}
		return 0
	}

	var selected []experiments.Experiment
	if *run == "" {
		selected = all
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(strings.ToUpper(id)))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	keep, err := parseCPs(*cps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	seedList, err := parseSeeds(*seeds, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	experiments.SetWorldShards(*shards)
	if *scenarioMode {
		sc.cp, sc.seed = experiments.CPPCE, *seed
		if len(keep) > 1 {
			fmt.Fprintln(os.Stderr, "-scenario takes a single -cps control plane")
			return 2
		}
		if len(keep) == 1 {
			sc.cp = keep[0]
		}
		if sc.domains < 2 || sc.flows < 1 || (sc.policy != "drop" && sc.policy != "queue") {
			fmt.Fprintln(os.Stderr, "-scenario needs -domains >= 2, -flows >= 1 and -policy drop|queue")
			return 2
		}
		return sc.run()
	}
	poolSize := runner.Serial
	if *parallel || *workers > 1 {
		poolSize = *workers // 0 = runner.Auto = GOMAXPROCS
	}

	for _, s := range seedList {
		if len(seedList) > 1 {
			fmt.Printf("==== seed %d ====\n\n", s)
		}
		for _, e := range selected {
			fmt.Printf("== %s: %s ==\n   %s\n\n", e.ID, e.Title, e.Claim)
			for _, tbl := range e.RunCPs(s, *quick, poolSize, keep) {
				if *markdown {
					fmt.Println(tbl.Markdown())
				} else {
					fmt.Println(tbl.String())
				}
			}
		}
	}
	return 0
}

// parseCPs resolves a comma-separated control-plane filter against the
// canonical names (case-insensitive).
func parseCPs(s string) ([]experiments.CP, error) {
	if s == "" {
		return nil, nil
	}
	var keep []experiments.CP
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, cp := range experiments.AllCPs {
			if strings.EqualFold(string(cp), name) {
				keep = append(keep, cp)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown control plane %q (use -list-cps)", name)
		}
	}
	return keep, nil
}

// parseSeeds returns the -seeds list, or the single -seed fallback.
func parseSeeds(s string, fallback int64) ([]int64, error) {
	if s == "" {
		return []int64{fallback}, nil
	}
	var seeds []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", part, err)
		}
		seeds = append(seeds, v)
	}
	if len(seeds) == 0 {
		return []int64{fallback}, nil
	}
	return seeds, nil
}
