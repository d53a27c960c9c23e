// Package te provides the traffic-engineering orchestration layer on top
// of the IRC engine: continuous per-provider utilization tracking for the
// experiment figures, and a rebalancer that triggers the PCE's dynamic
// mapping re-pushes when provider load drifts out of balance — the
// paper's "upstream/downstream TE through the dynamic management of the
// mappings".
package te

import (
	"time"

	"github.com/pcelisp/pcelisp/internal/irc"
	"github.com/pcelisp/pcelisp/internal/metrics"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

// TrackedLink is one monitored provider link.
type TrackedLink struct {
	// Name labels the series.
	Name string
	// Iface is the egress interface whose counters are sampled.
	Iface *simnet.Iface
	// CapacityBps normalizes byte counts to utilization.
	CapacityBps int64
}

// Tracker samples link utilizations into time series. The per-tick hot
// state lives in parallel slices indexed by the link's Add order (a
// struct-of-arrays layout), so the sampling loop walks contiguous memory
// instead of chasing one heap object per link.
type Tracker struct {
	sim *simnet.Sim
	// Interval is the sampling period (default 1s).
	Interval simnet.Time

	links []TrackedLink
	// lastTx / lastRx are the previous DeliveredBytes snapshots, parallel
	// to links.
	lastTx []uint64
	lastRx []uint64
	// primed marks that lastTx/lastRx hold a real snapshot. A link added
	// after Start() joins with primed=false, so its first sample only
	// snapshots the counters instead of charging the whole cumulative
	// count to one interval.
	primed []bool
	// Egress and Ingress hold one series per tracked link, in Add order.
	Egress  []*metrics.Series
	Ingress []*metrics.Series

	started bool
	samples int
}

// NewTracker builds an idle tracker.
func NewTracker(sim *simnet.Sim) *Tracker {
	return &Tracker{sim: sim, Interval: time.Second}
}

// Add registers a link to track.
func (t *Tracker) Add(name string, iface *simnet.Iface, capacityBps int64) {
	t.links = append(t.links, TrackedLink{Name: name, Iface: iface, CapacityBps: capacityBps})
	t.lastTx = append(t.lastTx, 0)
	t.lastRx = append(t.lastRx, 0)
	t.primed = append(t.primed, false)
	t.Egress = append(t.Egress, metrics.NewSeries(name+"/egress"))
	t.Ingress = append(t.Ingress, metrics.NewSeries(name+"/ingress"))
}

// Start begins periodic sampling. The tracker keeps the event queue alive
// forever; run the simulation with bounded windows.
func (t *Tracker) Start() {
	if t.started {
		return
	}
	t.started = true
	t.sample()
}

func (t *Tracker) sample() {
	dt := float64(t.Interval) / float64(time.Second)
	now := t.sim.Now()
	for i := range t.links {
		l := &t.links[i]
		// Goodput, not offered load: DeliveredBytes excludes frames the
		// link destroyed (random loss, admin-down), so a lossy provider
		// reads as carrying less traffic, not more.
		tx, rx := l.Iface.GoodputBytes()
		// Priming is per link, not per tracker: a link registered while
		// the sampler is already live must not book its entire cumulative
		// counter as one interval's traffic.
		if t.primed[i] && l.CapacityBps > 0 {
			t.Egress[i].Add(now, float64(tx-t.lastTx[i])*8/dt/float64(l.CapacityBps))
			t.Ingress[i].Add(now, float64(rx-t.lastRx[i])*8/dt/float64(l.CapacityBps))
		}
		t.lastTx[i], t.lastRx[i], t.primed[i] = tx, rx, true
	}
	t.samples++
	t.sim.ScheduleTimer(t.Interval, t, simnet.TimerArg{})
}

// OnTimer implements simnet.TimerHandler: the periodic utilization sample.
func (t *Tracker) OnTimer(simnet.TimerArg) { t.sample() }

// LastEgress returns the latest egress utilizations in Add order.
func (t *Tracker) LastEgress() []float64 {
	out := make([]float64, len(t.Egress))
	for i, s := range t.Egress {
		out[i] = s.Last()
	}
	return out
}

// LastIngress returns the latest ingress utilizations in Add order.
func (t *Tracker) LastIngress() []float64 {
	out := make([]float64, len(t.Ingress))
	for i, s := range t.Ingress {
		out[i] = s.Last()
	}
	return out
}

// MaxEgress returns the current maximum egress utilization.
func (t *Tracker) MaxEgress() float64 {
	m := 0.0
	for _, u := range t.LastEgress() {
		if u > m {
			m = u
		}
	}
	return m
}

// JainEgress returns Jain's fairness index over current egress loads.
func (t *Tracker) JainEgress() float64 { return metrics.Jain(t.LastEgress()) }

// JainIngress returns Jain's fairness index over current ingress loads.
func (t *Tracker) JainIngress() float64 { return metrics.Jain(t.LastIngress()) }

// Repusher re-announces current mappings; implemented by core.PCE.
type Repusher interface {
	// Repush re-pushes live flows with fresh IRC choices, returning how
	// many moved.
	Repush() int
}

// RebalancerStats counts rebalancer activity.
type RebalancerStats struct {
	Checks     uint64
	Rebalances uint64
	FlowsMoved uint64
}

// Rebalancer watches provider imbalance and triggers mapping re-pushes.
type Rebalancer struct {
	engine *irc.Engine
	target Repusher
	sim    *simnet.Sim // set by Start

	// Threshold is the max-min utilization spread that triggers a
	// rebalance (default 0.2).
	Threshold float64
	// Interval is the check period (default 5s).
	Interval simnet.Time
	// Ingress selects whether inbound (true) or outbound utilization
	// drives the decision.
	Ingress bool

	// Stats counts activity.
	Stats RebalancerStats
}

// NewRebalancer builds a rebalancer around an engine and a re-push target.
func NewRebalancer(engine *irc.Engine, target Repusher) *Rebalancer {
	return &Rebalancer{engine: engine, target: target, Threshold: 0.2, Interval: 5 * time.Second}
}

// Start begins periodic checks (keeps the event queue alive forever).
func (r *Rebalancer) Start(sim *simnet.Sim) {
	r.sim = sim
	sim.ScheduleTimer(r.Interval, r, simnet.TimerArg{})
}

// OnTimer implements simnet.TimerHandler: the periodic imbalance check.
func (r *Rebalancer) OnTimer(simnet.TimerArg) {
	r.Check()
	r.sim.ScheduleTimer(r.Interval, r, simnet.TimerArg{})
}

// Check inspects the imbalance once and re-pushes if above threshold. It
// reports whether a rebalance fired.
func (r *Rebalancer) Check() bool {
	r.Stats.Checks++
	lo, hi := 0.0, 0.0
	first := true
	for _, s := range r.engine.Snapshot() {
		if !s.Up {
			continue
		}
		u := s.EgressUtil
		if r.Ingress {
			u = s.IngressUtil
		}
		if first {
			lo, hi, first = u, u, false
			continue
		}
		if u < lo {
			lo = u
		}
		if u > hi {
			hi = u
		}
	}
	if first || hi-lo < r.Threshold {
		return false
	}
	moved := r.target.Repush()
	if moved > 0 {
		r.Stats.Rebalances++
		r.Stats.FlowsMoved += uint64(moved)
	}
	return moved > 0
}
