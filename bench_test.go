package pcelisp

// The repository benchmark is bench/ (`bash bench/run.sh`, declared in
// BENCHMARK.json); it prices the experiment suite, flow setup, raw
// simulator throughput and the map-cache. What is left here are the
// micro-benchmarks no bench/ metric covers: the TE solver, the
// simulator's per-packet cost with probing and telemetry on, and the
// sharded engine at 1 and 4 shards.

import (
	"fmt"
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/experiments"
	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/teopt"
)

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

// BenchmarkSimThroughputProbing sends 1000 one-hop data packets per
// iteration through a preinstalled world with RLOC probing enabled at
// every xTR: the probe timers ride the typed-event scheduler, so
// per-packet cost must stay flat with liveness on. The probing world
// runs bounded windows (probe timers re-arm forever, so Run() would
// never return).
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
