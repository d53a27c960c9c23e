// Package teopt implements the PCE-side closed-loop inbound
// traffic-engineering optimizer: the piece that turns the paper's "the
// mappings can be recomputed and pushed at any time" into a running
// control loop. Border routers stream cheap per-provider-link goodput
// telemetry (or, for a site-local deployment, the optimizer samples the
// interfaces itself); the optimizer smooths the samples into EWMA
// utilizations, and when the worst link crosses the activation
// threshold it solves for a new discrete locator weight split
// (solver.go) and hands it to an Apply hook — core.PCE applies it to
// the mapping database, announces it to subscriber PCEs and re-pushes
// live flows, while a pull-based site can only refresh its own record
// and wait for remote caches to expire.
//
// The split of labor mirrors LazyCtrl's central/local divide: the xTRs
// do nothing but a counter subtraction per interval, the centralized
// optimizer owns all policy.
package teopt

import (
	"time"

	"github.com/pcelisp/pcelisp/internal/irc"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

// Link is one provider attachment under optimization.
type Link struct {
	// Name labels the link in diagnostics.
	Name string
	// RLOC identifies the link in telemetry reports.
	RLOC netaddr.Addr
	// CapacityBps is the provisioned capacity.
	CapacityBps int64
	// Iface, when set, is sampled directly each tick (site-local mode,
	// used where no telemetry stream exists). Egress reads the
	// interface's delivered counters, ingress its peer's — the same
	// goodput the xTR telemetry reports.
	Iface *simnet.Iface
}

// Config tunes the optimizer.
type Config struct {
	// Interval is the solve cadence (default 1s).
	Interval simnet.Time
	// Alpha is the EWMA smoothing factor for load samples (default 0.5):
	// high enough to chase a flash crowd within a couple of intervals,
	// low enough to ignore single-interval noise.
	Alpha float64
	// Units is the number of discrete weight quanta to split (default
	// 100; capped at 255 so a single locator's share fits LISP's uint8
	// weight).
	Units int
	// Activate is the max-utilization threshold below which the
	// optimizer stays idle (default 0.7): balanced-enough traffic is not
	// worth churning mappings over.
	Activate float64
	// MinGain is the minimum predicted improvement of max utilization
	// required to emit a new split (default 0.05) — the anti-oscillation
	// deadband.
	MinGain float64
	// Hold is the minimum time between applies (default 3s), giving each
	// pushed split one EWMA settling period before being judged.
	Hold simnet.Time
	// NudgeAt is the utilization above which the feedback stage engages
	// (default 0.9): when the deployed split already matches the model
	// optimum but a link still runs hot — flow-hash granularity the
	// aggregate model cannot see — quanta are shifted away from the
	// observed worst link instead.
	NudgeAt float64
	// NudgeStep is the quanta moved per feedback correction (default
	// Units/10 — wide enough that the shifted hash window almost surely
	// contains some flows).
	NudgeStep int
	// Ingress selects whether inbound (true) or outbound load drives the
	// optimization. Inbound is the paper's interesting direction: it is
	// the one only a mapping push can steer.
	Ingress bool
}

func (c *Config) fill() {
	if c.Interval == 0 {
		c.Interval = time.Second
	}
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.Units == 0 {
		c.Units = 100
	}
	if c.Units > 255 {
		// A locator weight is a uint8 on the wire; more quanta than 255
		// could not be represented and CurrentWeights would silently
		// flatten the solved ratio.
		c.Units = 255
	}
	if c.Activate == 0 {
		c.Activate = 0.7
	}
	if c.MinGain == 0 {
		c.MinGain = 0.05
	}
	if c.Hold == 0 {
		c.Hold = 3 * time.Second
	}
	if c.NudgeAt == 0 {
		c.NudgeAt = 0.9
	}
	if c.NudgeStep == 0 {
		c.NudgeStep = c.Units / 10
		if c.NudgeStep == 0 {
			c.NudgeStep = 1
		}
	}
}

// Stats counts optimizer activity.
type Stats struct {
	// Reports counts telemetry observations consumed.
	Reports uint64
	// Ticks counts solve-cadence timer fires.
	Ticks uint64
	// Solves counts solver runs (ticks past the activation threshold).
	Solves uint64
	// Applies counts weight vectors actually emitted.
	Applies uint64
	// Nudges counts the subset of Applies produced by the feedback
	// stage rather than the model solver.
	Nudges uint64
	// LastMaxUtil is the most recent smoothed maximum utilization.
	LastMaxUtil float64
	// LastPredicted is the predicted max utilization of the last emitted
	// split.
	LastPredicted float64
}

// linkState is one link's smoothed demand.
type linkState struct {
	load    *irc.EWMA // bps, goodput
	lastOut uint64    // direct-sampling counters
	lastIn  uint64
	primed  bool
}

// Optimizer is the closed-loop controller.
type Optimizer struct {
	sim   *simnet.Sim
	cfg   Config
	links []Link
	state []linkState
	cur   []int // current weight split, in units

	// Apply receives each newly solved weight vector, one uint8 weight
	// per link in registration order. It is the actuator: core.PCE's
	// ApplyProviderWeights for the push plane, a site-record update plus
	// RefreshSite for pull planes.
	Apply func(weights []uint8)

	lastApply simnet.Time
	started   bool
	// feedback latches once the first nudge fires: from then on the
	// observed utilizations own the loop and the aggregate model is not
	// consulted again — re-applying its optimum would undo the
	// granularity corrections and oscillate.
	feedback bool

	// Stats counts activity.
	Stats Stats
}

// New builds an optimizer over the given links. The initial weight
// split defaults to an even one; use SetCurrentWeights when the site
// starts from a different advertised vector.
func New(sim *simnet.Sim, links []Link, cfg Config) *Optimizer {
	cfg.fill()
	o := &Optimizer{sim: sim, cfg: cfg, links: links}
	o.state = make([]linkState, len(links))
	for i := range o.state {
		o.state[i].load = irc.NewEWMA(cfg.Alpha)
	}
	o.cur = make([]int, len(links))
	for i := range o.cur {
		o.cur[i] = cfg.Units / max(1, len(links))
	}
	return o
}

// SetCurrentWeights seeds the optimizer's view of the currently
// advertised split, scaled into its internal units, so the first solve
// compares against reality instead of an assumed even split.
func (o *Optimizer) SetCurrentWeights(weights []uint8) {
	total := 0
	for _, w := range weights {
		total += int(w)
	}
	if total == 0 || len(weights) != len(o.cur) {
		return
	}
	for i, w := range weights {
		o.cur[i] = int(w) * o.cfg.Units / total
	}
}

// CurrentWeights returns the split the optimizer believes is deployed,
// as uint8 weights.
func (o *Optimizer) CurrentWeights() []uint8 {
	out := make([]uint8, len(o.cur))
	for i, w := range o.cur {
		if w > 255 {
			w = 255
		}
		out[i] = uint8(w)
	}
	return out
}

// Observe consumes one telemetry sample for the link identified by
// rloc: bytes of goodput delivered over the window. Unknown RLOCs are
// ignored (a report can outlive a reconfiguration).
func (o *Optimizer) Observe(rloc netaddr.Addr, bytes uint64, window simnet.Time) {
	if window <= 0 {
		return
	}
	for i := range o.links {
		if o.links[i].RLOC != rloc {
			continue
		}
		o.Stats.Reports++
		bps := float64(bytes) * 8 / (float64(window) / float64(time.Second))
		o.state[i].load.Update(bps)
		return
	}
}

// Start begins the solve cadence (keeps the event queue alive forever;
// run the simulation with bounded windows).
func (o *Optimizer) Start() {
	if o.started {
		return
	}
	o.started = true
	o.sim.ScheduleTimer(o.cfg.Interval, o, simnet.TimerArg{})
}

// OnTimer implements simnet.TimerHandler: one optimization tick.
func (o *Optimizer) OnTimer(simnet.TimerArg) {
	o.tick()
	o.sim.ScheduleTimer(o.cfg.Interval, o, simnet.TimerArg{})
}

// tick samples direct-attached interfaces, then decides whether a new
// split is worth pushing.
func (o *Optimizer) tick() {
	o.Stats.Ticks++
	dt := float64(o.cfg.Interval) / float64(time.Second)
	for i := range o.links {
		l, st := &o.links[i], &o.state[i]
		if l.Iface == nil {
			continue // telemetry-fed
		}
		out, in := l.Iface.GoodputBytes()
		if st.primed {
			bytes := out - st.lastOut
			if o.cfg.Ingress {
				bytes = in - st.lastIn
			}
			st.load.Update(float64(bytes) * 8 / dt)
		}
		st.lastOut, st.lastIn, st.primed = out, in, true
	}

	load := make([]float64, len(o.links))
	caps := make([]float64, len(o.links))
	for i := range o.links {
		load[i] = o.state[i].load.Value()
		caps[i] = float64(o.links[i].CapacityBps)
	}
	o.Stats.LastMaxUtil = MaxUtil(load, caps)
	if o.Stats.LastMaxUtil < o.cfg.Activate {
		return
	}
	if o.lastApply != 0 && o.sim.Now()-o.lastApply < o.cfg.Hold {
		return
	}

	// Stage 1 — model: jump to the min-max optimum of the proportional
	// redistribution model. One jump does the bulk of a correction (a
	// flash crowd's worth of imbalance in a single push).
	if !o.feedback {
		o.Stats.Solves++
		solved := Solve(load, caps, o.cfg.Units)
		if !equalInts(solved, o.cur) {
			total := 0.0
			for _, l := range load {
				total += l
			}
			predicted := PredictedMax(total, caps, solved)
			if o.Stats.LastMaxUtil-predicted >= o.cfg.MinGain {
				o.cur = solved
				o.emit(predicted)
				return
			}
		}
	}

	// Stage 2 — feedback: the model is at its fixpoint (or has been
	// retired) but a link still runs hot, which means flow-hash
	// granularity, not the aggregate split, is the residual problem.
	// Shift quanta from the observed worst link toward the observed
	// best; each shift slides the hash boundary past a few more flows.
	if o.Stats.LastMaxUtil < o.cfg.NudgeAt {
		return
	}
	src, dst := -1, -1
	for i, c := range caps {
		if c <= 0 {
			continue
		}
		if src < 0 || load[i]/c > load[src]/caps[src] {
			src = i
		}
		if dst < 0 || load[i]/c < load[dst]/caps[dst] {
			dst = i
		}
	}
	if src < 0 || dst < 0 || src == dst || o.cur[src] <= o.cfg.NudgeStep {
		return
	}
	o.feedback = true
	o.cur[src] -= o.cfg.NudgeStep
	o.cur[dst] += o.cfg.NudgeStep
	o.Stats.Nudges++
	o.emit(o.Stats.LastMaxUtil)
}

// emit records an apply and hands the new split to the actuator.
func (o *Optimizer) emit(predicted float64) {
	o.lastApply = o.sim.Now()
	o.Stats.Applies++
	o.Stats.LastPredicted = predicted
	if o.Apply != nil {
		o.Apply(o.CurrentWeights())
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
