package pcelisp

// The benchmarks below regenerate every experiment of the evaluation
// (one per table/figure in EXPERIMENTS.md) under the Go benchmark
// harness, so `go test -bench=.` reproduces the paper-shaped results and
// tracks the simulator's own performance. Each iteration runs the full
// experiment at its test scale; ns/op therefore measures "cost to
// regenerate the table". The ...Parallel variants run the same cells
// through the worker-pool engine (GOMAXPROCS workers), so comparing a
// pair shows the scenario engine's speedup on the current machine.

import (
	"fmt"
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/experiments"
	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runner"
	"github.com/pcelisp/pcelisp/internal/simnet"
	"github.com/pcelisp/pcelisp/internal/teopt"
	"github.com/pcelisp/pcelisp/internal/workload"
)

func benchExperiment(b *testing.B, id string, workers int) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := e.RunWorkers(int64(i)+1, true, workers)
		if len(tables) == 0 || len(tables[0].Rows()) == 0 {
			b.Fatalf("%s produced no results", id)
		}
	}
}

// BenchmarkE1DropsDuringResolution regenerates the claim (i) loss table.
func BenchmarkE1DropsDuringResolution(b *testing.B) { benchExperiment(b, "E1", runner.Serial) }

// BenchmarkE1Parallel regenerates the same table through the worker pool.
func BenchmarkE1Parallel(b *testing.B) { benchExperiment(b, "E1", runner.Auto) }

// BenchmarkE2HandshakeLatency regenerates the setup-latency table.
func BenchmarkE2HandshakeLatency(b *testing.B) { benchExperiment(b, "E2", runner.Serial) }

// BenchmarkE2Parallel regenerates the same table through the worker pool.
func BenchmarkE2Parallel(b *testing.B) { benchExperiment(b, "E2", runner.Auto) }

// BenchmarkE3MappingWithinDNS regenerates the (TDNS+Tmap)/TDNS table.
func BenchmarkE3MappingWithinDNS(b *testing.B) { benchExperiment(b, "E3", runner.Serial) }

// BenchmarkE3Parallel regenerates the same table through the worker pool.
func BenchmarkE3Parallel(b *testing.B) { benchExperiment(b, "E3", runner.Auto) }

// BenchmarkE4TrafficEngineering regenerates the TE utilization table.
func BenchmarkE4TrafficEngineering(b *testing.B) { benchExperiment(b, "E4", runner.Serial) }

// BenchmarkE5ControlOverhead regenerates the overhead table.
func BenchmarkE5ControlOverhead(b *testing.B) { benchExperiment(b, "E5", runner.Serial) }

// BenchmarkE5Parallel regenerates the same table through the worker pool.
func BenchmarkE5Parallel(b *testing.B) { benchExperiment(b, "E5", runner.Auto) }

// BenchmarkE6TwoWayResolution regenerates the two-way completion table.
func BenchmarkE6TwoWayResolution(b *testing.B) { benchExperiment(b, "E6", runner.Serial) }

// BenchmarkE6Parallel regenerates the same table through the worker pool.
func BenchmarkE6Parallel(b *testing.B) { benchExperiment(b, "E6", runner.Auto) }

// BenchmarkE7Scalability regenerates the scaling table.
func BenchmarkE7Scalability(b *testing.B) { benchExperiment(b, "E7", runner.Serial) }

// BenchmarkE7Parallel regenerates the same table through the worker pool.
func BenchmarkE7Parallel(b *testing.B) { benchExperiment(b, "E7", runner.Auto) }

// BenchmarkE8Ablations regenerates the robustness tables.
func BenchmarkE8Ablations(b *testing.B) { benchExperiment(b, "E8", runner.Serial) }

// BenchmarkE8Parallel regenerates the same tables through the worker pool.
func BenchmarkE8Parallel(b *testing.B) { benchExperiment(b, "E8", runner.Auto) }

// BenchmarkE9CacheScalability regenerates the cache-pressure tables.
func BenchmarkE9CacheScalability(b *testing.B) { benchExperiment(b, "E9", runner.Serial) }

// BenchmarkE9Parallel regenerates the same tables through the worker pool.
func BenchmarkE9Parallel(b *testing.B) { benchExperiment(b, "E9", runner.Auto) }

// BenchmarkE10FailureReconvergence regenerates the failure-injection
// sweep (RLOC probing, site watches, scripted FailurePlans).
func BenchmarkE10FailureReconvergence(b *testing.B) { benchExperiment(b, "E10", runner.Serial) }

// BenchmarkE10Parallel regenerates the same sweep through the worker pool.
func BenchmarkE10Parallel(b *testing.B) { benchExperiment(b, "E10", runner.Auto) }

// BenchmarkE11InboundTE regenerates the closed-loop congestion sweep
// (telemetry streams, TE optimizer, weight-update dissemination).
func BenchmarkE11InboundTE(b *testing.B) { benchExperiment(b, "E11", runner.Serial) }

// BenchmarkE11Parallel regenerates the same sweep through the worker pool.
func BenchmarkE11Parallel(b *testing.B) { benchExperiment(b, "E11", runner.Auto) }

// BenchmarkMapCachePressure measures the raw cache hot path (lookup,
// insert, evict, wheel) per policy under a skewed key stream — the inner
// loop every ITR runs per packet.
func BenchmarkMapCachePressure(b *testing.B) {
	for _, policy := range lisp.PolicyNames() {
		b.Run(policy, func(b *testing.B) {
			sim := simnet.New(1)
			factory, _ := lisp.PolicyByName(policy)
			c := lisp.NewMapCacheWithPolicy(sim, 64, factory(64))
			locs := []packet.LISPLocator{{Priority: 1, Weight: 100, Reachable: true,
				Addr: netaddr.AddrFrom4(10, 9, 0, 1)}}
			prefixes := make([]netaddr.Prefix, 512)
			eids := make([]netaddr.Addr, 512)
			for i := range prefixes {
				prefixes[i] = netaddr.PrefixFrom(netaddr.AddrFrom4(100, byte(1+i/256), byte(i%256), 0), 24)
				eids[i] = prefixes[i].NthHost(1)
			}
			zipf := workload.NewZipf(sim.Rand(), len(prefixes), 1.2)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				i := zipf.Next()
				if _, ok := c.Lookup(eids[i]); !ok {
					c.Insert(prefixes[i], locs, 60)
				}
			}
		})
	}
}

// BenchmarkFlowSetupPCE measures one complete PCE flow setup (DNS +
// push + handshake) on a fresh two-domain world — the end-to-end hot path.
func BenchmarkFlowSetupPCE(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := experiments.BuildWorld(experiments.WorldConfig{
			CP: experiments.CPPCE, Domains: 2, Seed: int64(i) + 1,
			MissPolicy: lisp.MissDrop,
		})
		w.Settle()
		ok := false
		w.StartFlow(0, 0, 1, 0, func(r experiments.FlowResult) { ok = r.OK })
		w.Sim.RunFor(10 * time.Second)
		if !ok {
			b.Fatal("flow failed")
		}
	}
}

// BenchmarkSimThroughput measures raw simulator packet throughput on a
// preinstalled world: 1000 one-hop data packets per iteration.
func BenchmarkSimThroughput(b *testing.B) {
	w := experiments.BuildWorld(experiments.WorldConfig{
		CP: experiments.CPPreinstalled, Domains: 2, Seed: 1,
	})
	w.Settle()
	src := w.In.Domains[0].Hosts[0]
	dst := w.In.Domains[1].Hosts[0]
	w.TCP[1][0].Listen(9999)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			w.TCP[0][0].SendData(dst.Addr, 40000, 9999, 1, 512)
		}
		w.Sim.Run()
	}
	_ = src
}

// BenchmarkSimThroughputSharded measures the lock-step sharded engine on
// the E12 scale world (quick size: 8 ITR sites resolving against a
// central trie-backed database over a 3-point capacity sweep), with the
// one logical world partitioned across 1 or 4 shards. The outputs are
// byte-identical by construction; only wall-clock may differ. Shards run
// on the process-wide worker pool, so the 4-shard variant only shows a
// speedup on a 4+ core machine — on fewer cores the epoch barriers are
// pure overhead and shards=1 is the relevant baseline.
func BenchmarkSimThroughputSharded(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			defer experiments.SetWorldShards(experiments.SetWorldShards(shards))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tbl := experiments.E12ScaleSweep(int64(i)+1, true)
				if len(tbl.Rows()) == 0 {
					b.Fatal("E12 produced no results")
				}
			}
		})
	}
}

// BenchmarkTEOptimizerSolve measures the raw min-max weight solver on an
// 8-provider site — the PCE-side cost of one optimization tick.
func BenchmarkTEOptimizerSolve(b *testing.B) {
	load := []float64{3.1e6, 0.4e6, 2.8e6, 1.9e6, 0, 3.9e6, 0.7e6, 2.2e6}
	caps := []float64{4e6, 4e6, 2e6, 2e6, 4e6, 4e6, 1e6, 2e6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := teopt.Solve(load, caps, 100)
		if len(w) != len(caps) {
			b.Fatal("solver lost links")
		}
	}
}

// BenchmarkSimThroughputProbing is BenchmarkSimThroughput with RLOC
// probing enabled at every xTR: the probe timers ride the typed-event
// scheduler, so per-packet cost must stay flat with liveness on. The
// probing world runs bounded windows (probe timers re-arm forever, so
// Run() would never return).
func BenchmarkSimThroughputProbing(b *testing.B) {
	w := experiments.BuildWorld(experiments.WorldConfig{
		CP: experiments.CPPreinstalled, Domains: 2, Seed: 1,
	})
	w.Settle()
	w.EnableProbing(lisp.ProbeConfig{Interval: time.Second})
	dst := w.In.Domains[1].Hosts[0]
	w.TCP[1][0].Listen(9999)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			w.TCP[0][0].SendData(dst.Addr, 40000, 9999, 1, 512)
		}
		w.Sim.RunFor(2 * time.Second)
	}
}

// BenchmarkSimThroughputTelemetry is BenchmarkSimThroughputProbing with
// link-load telemetry streaming on top of probing at the source domain's
// xTR: the full liveness-plus-TE sensing stack must keep per-packet cost
// flat — the telemetry is one datagram per interval, not per-packet
// work.
func BenchmarkSimThroughputTelemetry(b *testing.B) {
	w := experiments.BuildWorld(experiments.WorldConfig{
		CP: experiments.CPPreinstalled, Domains: 2, Seed: 1,
	})
	w.Settle()
	w.EnableProbing(lisp.ProbeConfig{Interval: time.Second})
	d0 := w.In.Domains[0]
	links := make([]lisp.TelemetryLink, len(d0.Providers))
	for i, p := range d0.Providers {
		links[i] = lisp.TelemetryLink{RLOC: p.RLOC, Sample: p.EgressIface.GoodputBytes, CapacityBps: 4_000_000}
	}
	d0.XTRs[0].EnableTelemetry(lisp.TelemetryConfig{
		Collector: d0.PCEAddr, Interval: time.Second, Links: links,
	})
	dst := w.In.Domains[1].Hosts[0]
	w.TCP[1][0].Listen(9999)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			w.TCP[0][0].SendData(dst.Addr, 40000, 9999, 1, 512)
		}
		w.Sim.RunFor(2 * time.Second)
	}
	if d0.XTRs[0].Stats().TelemetryReports == 0 {
		b.Fatal("telemetry never streamed")
	}
}
