package main

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"github.com/pcelisp/pcelisp/internal/experiments"
	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/simnet"
	"github.com/pcelisp/pcelisp/internal/workload"
)

// The simulator workloads run the deterministic engine serially: one
// goroutine, one shard (the experiments package default), no worker pool.
// Host time is what the numbers measure; simulated results must repeat
// exactly and are checked, not gated.

// ---- sim_hot -------------------------------------------------------------

// simHot is BenchmarkSimThroughput as a workload: batches of data
// segments host→host across a preinstalled two-domain world, the
// simulator's twin of fwd_small (same lisp fast path, simnet in place of
// overlay + runtime.Loop).
type simHot struct {
	seed int64
	sz   sizing
	m    *meter

	w    *experiments.World
	src  *workload.TCPHost
	sink *workload.TCPHost
	// eventsPerBatch is fixed by the first warm-up batch; every later
	// batch must process exactly as many events.
	eventsPerBatch int
}

const (
	hotSegBytes = 512
	hotSrcPort  = 40000
	hotDstPort  = 9999
)

func newSimHot(seed int64, sz sizing, m *meter) *simHot { return &simHot{seed: seed, sz: sz, m: m} }

func (s *simHot) stamp() string {
	return fmt.Sprintf("op=one %d-byte segment; batch=%d segments then Sim.Run; round=%d batches; set-up=BuildWorld(ideal, 2 domains)+Settle+%d warm-up batches",
		hotSegBytes, s.sz.hotBatch, s.sz.hotRoundBatches, s.sz.hotWarmupBatches)
}

func (s *simHot) setup() error {
	s.w = experiments.BuildWorld(experiments.WorldConfig{
		CP: experiments.CPPreinstalled, Domains: 2, Seed: s.seed,
	})
	s.w.Settle()
	s.src, s.sink = s.w.TCP[0][0], s.w.TCP[1][0]
	s.sink.Listen(hotDstPort)
	for i := 0; i < s.sz.hotWarmupBatches; i++ {
		events, delivered := s.batch(nil, noSpan, 0)
		if delivered != s.sz.hotBatch {
			return fmt.Errorf("warm-up batch %d delivered %d of %d segments", i, delivered, s.sz.hotBatch)
		}
		if i == 0 {
			s.eventsPerBatch = events
		} else if events != s.eventsPerBatch {
			return fmt.Errorf("warm-up batch %d ran %d events, batch 0 ran %d", i, events, s.eventsPerBatch)
		}
		if (i+1)%s.sz.hotRoundBatches == 0 {
			s.m.lap()
		}
	}
	return nil
}

// batch injects one batch and drains the simulator; it returns the event
// count and how many of the injected segments were delivered.
func (s *simHot) batch(tr *tracer, parent spanID, round int64) (events, delivered int) {
	before := s.sink.Stats.DataReceived
	id := tr.begin("flows.inject", parent, round)
	s.src.SendData(s.sink.Addr(), hotSrcPort, hotDstPort, s.sz.hotBatch, hotSegBytes)
	tr.end(id)
	id = tr.begin("sim.run", parent, round)
	events = s.w.Sim.Run()
	tr.end(id)
	return events, int(s.sink.Stats.DataReceived - before)
}

func (s *simHot) window(d time.Duration, tr *tracer) (windowResult, error) {
	res := windowResult{lat: &hist{}, layer: make(map[string]float64), rounds: make([]roundRec, 0, 1<<10)}
	var events int64
	var roundLat hist
	round := int64(0)
	snap := snapMem()
	start := time.Now()
	s.m.lap() // what came before the window is not the first round's
	for {
		rs := tr.begin("round", noSpan, round)
		var delivered int64
		for b := 0; b < s.sz.hotRoundBatches; b++ {
			t0 := time.Now()
			n, got := s.batch(tr, rs, round)
			el := int64(time.Since(t0))
			res.lat.add(el)
			roundLat.add(el)
			events += int64(n)
			delivered += int64(got)
			if n != s.eventsPerBatch {
				res.notes = append(res.notes, fmt.Sprintf("batch ran %d events, want %d", n, s.eventsPerBatch))
			}
		}
		tr.end(rs)
		round++
		res.rounds = append(res.rounds, roundRec{ops: delivered, cost: s.m.lap(), p50: roundLat.quantile(0.5)})
		roundLat.reset()
		res.attempted += int64(s.sz.hotRoundBatches * s.sz.hotBatch)
		res.failed += int64(s.sz.hotRoundBatches*s.sz.hotBatch) - delivered
		if time.Since(start) >= d {
			break
		}
	}
	res.mem = snap.until(snapMem())
	res.costOps = res.attempted
	res.latRounds = res.rounds
	var cost slice
	for _, r := range res.rounds {
		cost.add(r.cost)
	}
	res.layer["simnet.events_per_op"] = float64(events) / float64(res.attempted)
	res.layer["simnet.events_per_s"] = float64(events) / (cost.rawWall / 1e9)
	res.info = append(res.info, fmt.Sprintf("sim_hot events_per_batch=%d (constant) delivered=injected", s.eventsPerBatch))
	return res, nil
}

func (s *simHot) close() {}

// ---- sim_setup -----------------------------------------------------------

// setupPlanes are the control planes sim_setup builds a world for, in
// round order, with the suffix of their per-layer metric names.
var setupPlanes = []struct {
	cp     experiments.CP
	hostUs string // host time per flow
	model  string // simulated mean setup latency
}{
	{experiments.CPALT, "mapsys.alt_us_per_flow", "model.setup_ms_alt"},
	{experiments.CPCONS, "mapsys.cons_us_per_flow", "model.setup_ms_cons"},
	{experiments.CPMSMR, "mapsys.msmr_us_per_flow", "model.setup_ms_msmr"},
	{experiments.CPNERD, "mapsys.nerd_us_per_flow", "model.setup_ms_nerd"},
	{experiments.CPPCE, "core.pce_us_per_flow", "model.setup_ms_pce"},
}

// simSetup loads the control planes: per round and per plane a fresh
// world, every cross-domain host pair resolving and connecting once. It
// is the only workload where mapsys, dnssim and the sim-side PCE carry
// the load.
type simSetup struct {
	seed int64
	sz   sizing
	m    *meter
	// modelMs is each plane's simulated mean setup latency, fixed by the
	// first set-up round; every later round must reproduce it exactly.
	modelMs []float64
}

const (
	// setupFlowGap spaces flow starts in simulated time.
	setupFlowGap = 5 * time.Millisecond
	// setupDrain is the simulated time allowed after the last start.
	setupDrain = 10 * time.Second
	// setupStep is the simulated time a world advances between two looks
	// at the meter.
	setupStep = time.Second
)

func newSimSetup(seed int64, sz sizing, m *meter) *simSetup {
	return &simSetup{seed: seed, sz: sz, m: m}
}

func (s *simSetup) flowsPerWorld() int {
	hosts := s.sz.simDomains * s.sz.simHosts
	return hosts * (hosts - s.sz.simHosts)
}

func (s *simSetup) stamp() string {
	return fmt.Sprintf("op=one simulated flow setup (DNS+mapping+TCP handshake); round=%d planes x %d flows (%d domains x %d hosts, MissQueue, starts %v apart); set-up=%d rounds",
		len(setupPlanes), s.flowsPerWorld(), s.sz.simDomains, s.sz.simHosts, setupFlowGap, s.sz.simWarmRounds)
}

// flowStarter starts flow N of a world when its typed timer fires, so the
// harness schedules thousands of starts without a closure each.
type flowStarter struct {
	w        *experiments.World
	done     func(experiments.FlowResult)
	pairs    [][4]int
	ok       int
	setupSum simnet.Time
}

func (f *flowStarter) OnTimer(arg simnet.TimerArg) {
	p := f.pairs[arg.N]
	f.w.StartFlow(p[0], p[1], p[2], p[3], f.done)
}

// runWorld builds one plane's world, runs every cross-domain pair and
// returns what that cost, the flows that completed and the simulated mean
// setup latency in ms.
func (s *simSetup) runWorld(cp experiments.CP, tr *tracer, parent spanID, round int64) (slice, int, float64) {
	var cost slice
	stage := func(name string, fn func()) {
		id := tr.begin(name, parent, round)
		fn()
		tr.end(id)
	}
	var w *experiments.World
	stage("world.build", func() {
		w = experiments.BuildWorld(experiments.WorldConfig{
			CP: cp, Domains: s.sz.simDomains, HostsPerDomain: s.sz.simHosts,
			MissPolicy: lisp.MissQueue, Seed: s.seed,
		})
	})
	stage("world.settle", w.Settle)
	fs := &flowStarter{w: w}
	fs.done = func(r experiments.FlowResult) {
		if r.OK {
			fs.ok++
			fs.setupSum += r.Setup
		}
	}
	stage("flows.inject", func() {
		for sd := 0; sd < s.sz.simDomains; sd++ {
			for sh := 0; sh < s.sz.simHosts; sh++ {
				for dd := 0; dd < s.sz.simDomains; dd++ {
					for dh := 0; dh < s.sz.simHosts && dd != sd; dh++ {
						fs.pairs = append(fs.pairs, [4]int{sd, sh, dd, dh})
					}
				}
			}
		}
		for i := range fs.pairs {
			w.Sim.ScheduleTimer(time.Duration(i)*setupFlowGap, fs, simnet.TimerArg{N: int64(i)})
		}
	})
	stage("sim.run", func() {
		for left := time.Duration(len(fs.pairs))*setupFlowGap + setupDrain; left > 0; left -= setupStep {
			w.RunFor(min(left, setupStep))
			cost.add(s.m.due())
		}
	})
	meanMs := 0.0
	if fs.ok > 0 {
		meanMs = float64(fs.setupSum) / float64(fs.ok) / float64(time.Millisecond)
	}
	cost.add(s.m.lap())
	return cost, fs.ok, meanMs
}

func (s *simSetup) setup() error {
	for r := 0; r < s.sz.simWarmRounds; r++ {
		for i, p := range setupPlanes {
			_, ok, ms := s.runWorld(p.cp, nil, noSpan, 0)
			if ok != s.flowsPerWorld() {
				return fmt.Errorf("%s: %d of %d flows completed", p.cp, ok, s.flowsPerWorld())
			}
			if r == 0 {
				s.modelMs = append(s.modelMs, ms)
			} else if ms != s.modelMs[i] {
				return fmt.Errorf("%s: simulated setup %v ms differs from the first round's %v", p.cp, ms, s.modelMs[i])
			}
		}
	}
	pce := s.modelMs[len(s.modelMs)-1]
	for i, p := range setupPlanes[:len(setupPlanes)-1] {
		if pce >= s.modelMs[i] {
			return fmt.Errorf("PCE-CP simulated setup %.3f ms is not below %s at %.3f ms", pce, p.cp, s.modelMs[i])
		}
	}
	return nil
}

func (s *simSetup) window(d time.Duration, tr *tracer) (windowResult, error) {
	res := windowResult{lat: &hist{}, layer: make(map[string]float64)}
	perPlane := make([][]float64, len(setupPlanes)) // host µs per flow, per round
	flows := s.flowsPerWorld()
	round := int64(0)
	snap := snapMem()
	start := time.Now()
	s.m.lap() // what came before the window is not the first world's
	for {
		rs := tr.begin("round", noSpan, round)
		var done int64
		var cost slice
		for i, p := range setupPlanes {
			world, ok, ms := s.runWorld(p.cp, tr, rs, round)
			cost.add(world)
			perPlane[i] = append(perPlane[i], world.rawWall/1e3/float64(flows))
			done += int64(ok)
			if ms != s.modelMs[i] {
				res.notes = append(res.notes, fmt.Sprintf("%s: simulated setup %v ms differs from set-up's %v", p.cp, ms, s.modelMs[i]))
			}
		}
		tr.end(rs)
		round++
		// The latency sample is the round's mean host time per world: the
		// planes' worlds differ tenfold, so a median over single worlds
		// would track whichever plane sits in the middle.
		perWorld := cost.rawWall / float64(len(setupPlanes))
		res.lat.add(int64(perWorld))
		res.rounds = append(res.rounds, roundRec{ops: done, cost: cost, p50: perWorld})
		res.attempted += int64(len(setupPlanes) * flows)
		res.failed += int64(len(setupPlanes)*flows) - done
		if time.Since(start) >= d {
			break
		}
	}
	res.mem = snap.until(snapMem())
	res.costOps = res.attempted
	res.latRounds = res.rounds
	var model []string
	for i, p := range setupPlanes {
		res.layer[p.hostUs] = median(perPlane[i])
		res.layer[p.model] = s.modelMs[i]
		model = append(model, fmt.Sprintf("%s=%.4f", p.cp, s.modelMs[i]))
	}
	res.info = append(res.info, "sim_setup simulated mean setup ms (identical every round): "+strings.Join(model, " "))
	return res, nil
}

func (s *simSetup) close() {}

// ---- sim_suite -----------------------------------------------------------

// simSuite is one serial regeneration of the E1–E13 quick suite per op:
// what someone regenerating the tables waits for. E11 is about three
// quarters of a pass, so this is not a control-plane benchmark; sim_setup
// is.
type simSuite struct {
	seed   int64
	m      *meter
	suite  []experiments.Experiment
	digest [sha256.Size]byte
}

func newSimSuite(seed int64, m *meter) *simSuite {
	return &simSuite{seed: seed, m: m, suite: experiments.All()}
}

func (s *simSuite) stamp() string {
	return fmt.Sprintf("op=one serial pass over %d experiments at quick scale; round=1 pass; set-up=1 pass", len(s.suite))
}

// pass regenerates every table once and returns the digest of the rendered
// text, the host seconds each experiment took and what the pass cost. It
// runs each experiment the way Experiment.Run does — its cells in order on
// this goroutine, then the merge — but cell by cell, so the meter can lap
// between them: E11 alone is three quarters of a pass.
func (s *simSuite) pass(tr *tracer, parent spanID, op int64) ([sha256.Size]byte, []float64, slice) {
	var cost slice
	h := sha256.New()
	secs := make([]float64, len(s.suite))
	for i, e := range s.suite {
		id := tr.begin("exp."+e.ID, parent, op)
		t0, spun0 := time.Now(), s.m.spun
		cells, merge := e.Build(s.seed, true)
		results := make([]interface{}, len(cells))
		for c := range cells {
			results[c] = cells[c].Run()
			cost.add(s.m.due())
		}
		for _, tbl := range merge(results) {
			h.Write([]byte(tbl.String()))
		}
		secs[i] = (time.Since(t0) - (s.m.spun - spun0)).Seconds()
		tr.end(id)
	}
	cost.add(s.m.lap())
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum, secs, cost
}

func (s *simSuite) setup() error {
	s.digest, _, _ = s.pass(nil, noSpan, 0)
	return nil
}

func (s *simSuite) window(d time.Duration, tr *tracer) (windowResult, error) {
	res := windowResult{lat: &hist{}, layer: make(map[string]float64)}
	perExp := make([][]float64, len(s.suite))
	op := int64(0)
	snap := snapMem()
	start := time.Now()
	s.m.lap() // what came before the window is not the first pass's
	for {
		ps := tr.begin("pass", noSpan, op)
		digest, secs, cost := s.pass(tr, ps, op)
		tr.end(ps)
		res.lat.add(int64(cost.rawWall))
		res.rounds = append(res.rounds, roundRec{ops: 1, cost: cost, p50: cost.rawWall})
		res.attempted++
		if digest != s.digest {
			res.failed++
		}
		for i, v := range secs {
			perExp[i] = append(perExp[i], v)
		}
		op++
		if time.Since(start) >= d {
			break
		}
	}
	res.mem = snap.until(snapMem())
	res.costOps = res.attempted
	res.latRounds = res.rounds
	for i, e := range s.suite {
		res.layer["experiments."+e.ID+"_s"] = median(perExp[i])
	}
	res.info = append(res.info, fmt.Sprintf("sim_suite tables sha256=%x (identical every pass)", s.digest))
	return res, nil
}

func (s *simSuite) close() {}
