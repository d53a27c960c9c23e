package experiments

import (
	"fmt"
	"time"

	"github.com/pcelisp/pcelisp/internal/irc"
	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/metrics"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runner"
	"github.com/pcelisp/pcelisp/internal/simnet"
	"github.com/pcelisp/pcelisp/internal/te"
	"github.com/pcelisp/pcelisp/internal/teopt"
	"github.com/pcelisp/pcelisp/internal/topo"
	"github.com/pcelisp/pcelisp/internal/workload"
)

// E11 measures the closed-loop inbound TE claim: a PCE that observes
// provider-link load (cheap xTR telemetry) can recompute locator
// weights and *push* them — to its own ITRs and to every subscriber PCE,
// which re-pushes affected live flows within one RTT — while pull-based
// mapping systems can only refresh their own site record and wait for
// remote caches to expire (or, for NERD, for the next database poll).
//
// Domain 0 is dual-homed with rate-limited provider links and receives
// inbound elephant flows from several remote domains. Every control
// plane runs the *same* site-local optimizer (internal/teopt) over the
// same congestion scenario; the only difference under test is how fast
// a recomputed weight vector reaches the remote encapsulators:
//
//   - steady-zipf: heavy-tailed (truncated-harmonic) flow sizes split
//     equally over asymmetric provider capacities; the equal split
//     drowns the half-rate provider from the start.
//   - flash-crowd: a skewed initial split (fine for light traffic) meets
//     a staggered burst of new heavy flows; the favored provider
//     saturates until the weights move.
//   - diurnal: load ramps up wave by wave and back down under a skewed
//     split — continuous adaptation instead of one correction.
//
// Per cell we report the peak offered utilization of the worst provider
// link after the event, the time until inbound load drops back under
// the congestion threshold (time-to-rebalance), the overload volume
// (offered bytes above capacity — what a real link would have queued or
// dropped), Jain's fairness over the provider goodput at window end,
// and the control traffic spent: mapping-system messages, telemetry
// reports, and optimizer weight pushes. The idealized preinstalled
// plane runs no optimizer at all and bounds the do-nothing case.

// e11Scenario names one congestion script.
type e11Scenario struct {
	key     string
	desc    string
	weights []uint8 // initial advertised split
}

var e11Scenarios = []e11Scenario{
	// Equal weights over unequal capacities: the equal split drowns the
	// half-rate provider from the start; the capacity-proportional split
	// the solver finds must still travel to the remote encapsulators.
	{key: "steady-zipf", desc: "heavy-tailed steady load, equal split over asymmetric capacities", weights: []uint8{50, 50}},
	{key: "flash-crowd", desc: "staggered heavy-flow burst onto the favored provider", weights: []uint8{85, 15}},
	{key: "diurnal", desc: "wave ramp up and down, skewed split", weights: []uint8{65, 35}},
}

// e11Params sizes the sweep.
type e11Params struct {
	remotes  int    // source domains
	hosts    int    // hosts per domain = flows per source domain
	capacity int64  // provider link rate, bps
	ttl      uint32 // pull-plane mapping TTL, seconds
	nerdPoll time.Duration
	sample   simnet.Time // monitor/telemetry/optimizer cadence
	tEvent   simnet.Time // flash/ramp start; metric window start
	tEnd     simnet.Time
	flowStep simnet.Time // base-flow start stagger

	baseRate    int64 // per base flow, bps
	steadyTotal int64 // aggregate demand in steady-zipf
	flashRate   int64 // per flash pump, bps
	flashFlows  int
	flashStep   simnet.Time
	waveRate    int64 // per diurnal wave pump, bps
	waves       int
	wavePeriod  simnet.Time
	pkt         int
}

// e11Scale sizes the sweep. Flow count matters more than flow size:
// LISP weights move load by sliding the flow-hash boundary, so the
// aggregate-proportional model the solver uses only holds when many
// small flows straddle every boundary — with a handful of elephants a
// ten-point weight shift can move nothing at all. Both scales therefore
// run dozens of modest flows.
func e11Scale(quick bool) e11Params {
	if quick {
		return e11Params{
			remotes: 3, hosts: 8, capacity: 4_000_000, ttl: 15,
			nerdPoll: 7 * time.Second, sample: time.Second,
			tEvent: 10 * time.Second, tEnd: 36 * time.Second,
			flowStep: 150 * time.Millisecond,
			baseRate: 100_000, steadyTotal: 4_800_000,
			flashRate: 400_000, flashFlows: 8, flashStep: 700 * time.Millisecond,
			waveRate: 150_000, waves: 3, wavePeriod: 4 * time.Second,
			pkt: 1000,
		}
	}
	return e11Params{
		remotes: 4, hosts: 12, capacity: 4_000_000, ttl: 20,
		nerdPoll: 9 * time.Second, sample: time.Second,
		tEvent: 12 * time.Second, tEnd: 50 * time.Second,
		flowStep: 100 * time.Millisecond,
		baseRate: 50_000, steadyTotal: 4_800_000,
		flashRate: 300_000, flashFlows: 10, flashStep: 800 * time.Millisecond,
		waveRate: 75_000, waves: 3, wavePeriod: 6 * time.Second,
		pkt: 1000,
	}
}

// e11Capacities returns the per-provider capacities for a scenario:
// steady-zipf halves provider 1 (equal weights over unequal pipes is
// the congestion), the others run symmetric links.
func e11Capacities(scenario string, ps e11Params, providers int) []int64 {
	caps := make([]int64, providers)
	for i := range caps {
		caps[i] = ps.capacity
	}
	if scenario == "steady-zipf" && providers > 1 {
		caps[1] = ps.capacity / 2
	}
	return caps
}

// e11Result is one (scenario, control plane) cell outcome.
type e11Result struct {
	cp        CP
	scenario  string
	peak      float64     // max offered utilization of the worst link, t >= tEvent
	reconv    simnet.Time // tEvent -> last congested sample (censored at window end)
	overload  float64     // offered bytes above capacity, summed over links
	jain      float64     // Jain over provider ingress goodput at window end
	ctlMsgs   uint64      // mapping-system + PCE control messages after tEvent
	telMsgs   uint64      // telemetry reports after tEvent
	applies   uint64      // optimizer weight pushes over the whole run
	delivered uint64      // inbound goodput bytes over both links (sanity)
}

// e11Port is the inbound elephant-flow destination port.
const e11Port = 7200

// e11CongestedAt is the offered-utilization threshold that counts a
// provider link as congested for the time-to-rebalance metric.
const e11CongestedAt = 0.95

// e11Monitor samples the offered inbound load of domain 0's provider
// links on a typed timer: TxBytes of the provider-side interface is
// what the provider tries to deliver to the site — queued and dropped
// bytes included — so saturation shows up above 1.0 instead of being
// censored at link rate the way goodput is.
type e11Monitor struct {
	sim      *simnet.Sim
	ifaces   []*simnet.Iface // provider-side (peer) interfaces
	caps     []float64       // per-link capacity, bps
	interval simnet.Time
	stopAt   simnet.Time
	tEvent   simnet.Time

	lastTx   []uint64
	primed   bool
	peak     float64
	lastBad  simnet.Time
	overload float64 // bytes offered above capacity
}

func newE11Monitor(w *World, d0 *topo.Domain, caps []int64, ps e11Params) *e11Monitor {
	m := &e11Monitor{
		sim: w.Sim, interval: ps.sample,
		stopAt: ps.tEnd, tEvent: ps.tEvent, lastBad: -1,
	}
	for i, p := range d0.Providers {
		m.ifaces = append(m.ifaces, p.EgressIface.Peer())
		m.caps = append(m.caps, float64(caps[i]))
	}
	m.lastTx = make([]uint64, len(m.ifaces))
	m.sim.ScheduleTimer(m.interval, m, simnet.TimerArg{})
	return m
}

// OnTimer implements simnet.TimerHandler: one offered-load sample.
func (m *e11Monitor) OnTimer(simnet.TimerArg) {
	now := m.sim.Now()
	dt := float64(m.interval) / float64(time.Second)
	maxUtil := 0.0
	for i, ifc := range m.ifaces {
		tx := ifc.Counters().TxBytes
		if m.primed {
			bps := float64(tx-m.lastTx[i]) * 8 / dt
			if u := bps / m.caps[i]; u > maxUtil {
				maxUtil = u
			}
			if excess := bps - m.caps[i]; excess > 0 && now >= m.tEvent {
				m.overload += excess * dt / 8
			}
		}
		m.lastTx[i] = tx
	}
	m.primed = true
	if now >= m.tEvent {
		if maxUtil > m.peak {
			m.peak = maxUtil
		}
		if maxUtil >= e11CongestedAt {
			m.lastBad = now
		}
	}
	if now < m.stopAt {
		m.sim.ScheduleTimer(m.interval, m, simnet.TimerArg{})
	}
}

// reconverge returns tEvent -> end of the last congested sample (0 when
// the link never congested; the full window when it never recovered).
func (m *e11Monitor) reconverge() simnet.Time {
	if m.lastBad < 0 {
		return 0
	}
	r := m.lastBad + m.interval - m.tEvent
	if r < 0 {
		r = 0
	}
	return r
}

// e11Flow is one inbound elephant flow and its pumps.
type e11Flow struct {
	src, dst *topo.Host
	addr     netaddr.Addr // resolved destination (zero until DNS answers)
	pumps    []*workload.Pump
}

// startPump attaches one pump at rate to the flow once its DNS
// resolution has completed; before that the flow cannot be
// encapsulated, so the pump would only measure the resolver.
func (f *e11Flow) startPump(ps e11Params, rate int64) {
	if !f.addr.IsValid() {
		return
	}
	p := workload.NewPump(f.src.Node, f.src.Addr, f.addr, e11Port, rate, ps.pkt)
	p.Start()
	f.pumps = append(f.pumps, p)
}

// stopLastPump halts the most recently started pump (the diurnal
// down-ramp).
func (f *e11Flow) stopLastPump() {
	if n := len(f.pumps) - 1; n >= 0 {
		f.pumps[n].Stop()
		f.pumps = f.pumps[:n]
	}
}

// e11BaseRate returns flow j's steady sending rate for the scenario.
func e11BaseRate(scenario string, ps e11Params, j, flows int) int64 {
	if scenario != "steady-zipf" {
		return ps.baseRate
	}
	// Harmonic (Zipf s=1) sizes with the head truncated at 30% of a
	// uniform share budget: a single flow bigger than the small
	// provider's headroom could never be rebalanced by weights at all
	// (a flow is atomic), which would measure flow atomicity instead of
	// control-plane dissemination.
	w := func(k int) float64 { return min(1/float64(k+1), 0.3) }
	h := 0.0
	for k := 0; k < flows; k++ {
		h += w(k)
	}
	return int64(float64(ps.steadyTotal) * w(j) / h)
}

// e11RunCell runs one control plane through one congestion scenario.
func e11RunCell(cp CP, scenario string, seed int64, ps e11Params) e11Result {
	var sc e11Scenario
	for _, s := range e11Scenarios {
		if s.key == scenario {
			sc = s
		}
	}
	// The shortened TTL is the pull-plane staleness horizon under test;
	// the PCE keeps its default push TTL — its staleness bound is the
	// telemetry interval, not the record lifetime (same reasoning as
	// E10).
	ttl := ps.ttl
	var policy irc.Policy
	if cp == CPPCE {
		ttl = 0
		choices := make([]irc.Choice, len(sc.weights))
		for i, wt := range sc.weights {
			choices[i] = irc.Choice{Index: i, Priority: 1, Weight: wt}
		}
		policy = irc.WeightTable{Choices: choices}
	}
	w := BuildWorld(WorldConfig{
		CP: cp, Domains: 1 + ps.remotes, HostsPerDomain: ps.hosts,
		Seed: seed, MissPolicy: lisp.MissDrop,
		CapacityBps: ps.capacity, MappingTTL: ttl,
		NERDPoll: ps.nerdPoll, SiteWeights: sc.weights, Policy: policy,
	})
	w.Settle()
	d0 := w.In.Domains[0]
	caps := e11Capacities(scenario, ps, len(d0.Providers))
	for i, p := range d0.Providers {
		if caps[i] == ps.capacity {
			continue
		}
		// Scenario capacity asymmetry: re-rate both directions of the
		// provider link (the topo builder provisions symmetric domains).
		for _, ifc := range []*simnet.Iface{p.EgressIface, p.EgressIface.Peer()} {
			cfg := ifc.Config()
			cfg.RateBps = caps[i]
			ifc.SetConfig(cfg)
		}
	}

	// Sink the elephant flows.
	for _, h := range d0.Hosts {
		h.Node.ListenUDP(e11Port, func(*simnet.Delivery, *packet.UDP) {})
	}

	// Goodput tracker (Jain, sanity) and offered-load monitor.
	tracker := te.NewTracker(w.Sim)
	tracker.Interval = ps.sample
	for i, p := range d0.Providers {
		tracker.Add(p.Name, p.EgressIface, caps[i])
	}
	tracker.Start()
	mon := newE11Monitor(w, d0, caps, ps)

	// The optimizer: identical policy logic for every control plane;
	// only the sensing path, the actuator and the hold time differ. The
	// smoothing is deliberately twitchy (alpha 0.7, activation at 0.6) —
	// the loop must outrun a flash crowd's ramp, and the deadband plus
	// hold timer, not a sluggish filter, provide the stability. The hold
	// must cover the plane's own dissemination delay (a controller that
	// reacts faster than its actuation propagates just oscillates), so
	// the pull planes are held a full TTL — or a poll interval for NERD —
	// while the PCE only needs an RTT-scale settling period. This is the
	// paper's asymmetry expressed as loop gain.
	hold := 3 * time.Second
	switch cp {
	case CPNERD:
		hold = ps.nerdPoll + 2*time.Second
	case CPALT, CPCONS, CPMSMR:
		hold = time.Duration(ps.ttl)*time.Second + 2*time.Second
	}
	optCfg := teopt.Config{
		Interval: ps.sample, Ingress: true, Alpha: 0.7,
		Activate: 0.6, MinGain: 0.03, Hold: hold,
	}
	links := make([]teopt.Link, len(d0.Providers))
	for i, p := range d0.Providers {
		links[i] = teopt.Link{Name: p.Name, RLOC: p.RLOC, CapacityBps: caps[i]}
	}
	var opt *teopt.Optimizer
	switch {
	case cp == CPPCE:
		// Sensing: xTR telemetry streamed to the PCE. Actuation: apply to
		// the engine, announce to subscriber PCEs, re-push.
		pce0 := w.PCEs[0]
		opt = teopt.New(w.Sim, links, optCfg)
		opt.SetCurrentWeights(sc.weights)
		pce0.OnLoadReport = func(_ netaddr.Addr, loads []packet.PCELoadRecord) {
			for _, lr := range loads {
				opt.Observe(lr.RLOC, lr.InBytes, simnet.Time(lr.WindowMs)*simnet.Time(time.Millisecond))
			}
		}
		opt.Apply = func(wts []uint8) { pce0.ApplyProviderWeights(wts) }
		byXTR := make(map[*lisp.XTR][]lisp.TelemetryLink)
		for i, p := range d0.Providers {
			byXTR[p.XTR] = append(byXTR[p.XTR], lisp.TelemetryLink{
				RLOC: p.RLOC, Sample: p.EgressIface.GoodputBytes, CapacityBps: caps[i],
			})
		}
		for _, x := range d0.XTRs {
			if tls := byXTR[x]; len(tls) > 0 {
				x.EnableTelemetry(lisp.TelemetryConfig{
					Collector: d0.PCEAddr, Interval: ps.sample, Links: tls,
				})
			}
		}
		opt.Start()
	case w.MapSystem() != nil:
		// Pull planes: the site samples its own border interfaces (free
		// local knowledge) and can only refresh its own record — remote
		// caches keep the old weights until TTL expiry or the next poll.
		sys, site := w.MapSystem(), w.Sites[0]
		for i, p := range d0.Providers {
			links[i].Iface = p.EgressIface
		}
		opt = teopt.New(w.Sim, links, optCfg)
		opt.SetCurrentWeights(sc.weights)
		opt.Apply = func(wts []uint8) {
			for i := range site.Locators {
				if i < len(wts) {
					site.Locators[i].Weight = wts[i]
				}
			}
			sys.RefreshSite(site)
		}
		opt.Start()
		// CPPreinstalled: no mapping system, no optimizer — the bound on
		// doing nothing.
	}

	// Launch the inbound flows: host h of remote domain r pumps to host
	// h of domain 0, staggered so resolutions do not synchronize.
	flows := make([]*e11Flow, 0, ps.remotes*ps.hosts)
	for r := 1; r <= ps.remotes; r++ {
		for h := 0; h < ps.hosts; h++ {
			flows = append(flows, &e11Flow{src: w.In.Domains[r].Hosts[h], dst: d0.Hosts[h]})
		}
	}
	// Launch timers, pump starts and pump stops all mutate source-host
	// state, so each is armed on the shard owning that source domain
	// (arming is safe here: the world is quiescent before RunUntil).
	for j, f := range flows {
		j, f := j, f
		rate := e11BaseRate(scenario, ps, j, len(flows))
		f.src.Node.Sim().ScheduleFunc(2*time.Second+simnet.Time(j)*ps.flowStep, func() {
			f.src.DNS.Lookup(f.dst.Name, func(addr netaddr.Addr, _ simnet.Time, ok bool) {
				if !ok {
					return
				}
				f.addr = addr
				f.startPump(ps, rate)
			})
		})
	}

	// Scenario events.
	switch scenario {
	case "flash-crowd":
		for i := 0; i < ps.flashFlows; i++ {
			f := flows[i%len(flows)]
			f.src.Node.Sim().AtFunc(ps.tEvent+simnet.Time(i)*ps.flashStep, func() {
				f.startPump(ps, ps.flashRate)
			})
		}
	case "diurnal":
		// Wave k loads every waves-th flow, interleaved across source
		// domains so the ramp stresses the destination links rather than
		// any single remote's egress.
		for k := 0; k < ps.waves; k++ {
			up := ps.tEvent + simnet.Time(k)*ps.wavePeriod
			down := ps.tEvent + simnet.Time(2*ps.waves-k)*ps.wavePeriod
			for j := k; j < len(flows); j += ps.waves {
				f := flows[j]
				f.src.Node.Sim().AtFunc(up, func() { f.startPump(ps, ps.waveRate) })
				f.src.Node.Sim().AtFunc(down, func() { f.stopLastPump() })
			}
		}
	}

	// Control-overhead baseline at the event instant — a world-wide
	// snapshot, so it reads at a global barrier.
	var ctl0, tel0 uint64
	w.At(ps.tEvent, func() {
		ctl0, _ = w.ControlTotals()
		tel0 = w.TelemetryMessages()
	})
	w.RunUntil(ps.tEnd)

	res := e11Result{cp: cp, scenario: scenario}
	res.peak = mon.peak
	res.reconv = mon.reconverge()
	res.overload = mon.overload
	res.jain = tracker.JainIngress()
	msgs, _ := w.ControlTotals()
	res.ctlMsgs = msgs - ctl0
	res.telMsgs = w.TelemetryMessages() - tel0
	if opt != nil {
		res.applies = opt.Stats.Applies
	}
	for _, p := range d0.Providers {
		res.delivered += p.EgressIface.Peer().Counters().DeliveredBytes
	}
	return res
}

// e11Experiment decomposes the sweep into one cell per
// (scenario, control plane) pair.
func e11Experiment(seed int64, quick bool) ([]Cell, MergeFunc) {
	ps := e11Scale(quick)
	var cells []Cell
	for _, sc := range e11Scenarios {
		for _, cp := range AllCPs {
			sc, cp := sc, cp
			cells = append(cells, Cell{
				Label: fmt.Sprintf("%s/%s", sc.key, cp),
				CP:    cp,
				Run:   func() interface{} { return e11RunCell(cp, sc.key, seed, ps) },
			})
		}
	}
	merge := tableMerge(func(results []interface{}) *metrics.Table {
		tbl := metrics.NewTable(
			"E11: closed-loop inbound TE under congestion (dual-homed destination domain)",
			"scenario", "control plane", "peak util", "rebalance s", "overload KB",
			"Jain in", "ctl msgs", "telemetry", "wt pushes")
		for _, r := range results {
			if r == nil {
				continue
			}
			c := r.(e11Result)
			tbl.AddRow(c.scenario, string(c.cp), c.peak,
				float64(c.reconv)/float64(time.Second), c.overload/1024,
				c.jain, c.ctlMsgs, c.telMsgs, c.applies)
		}
		tbl.AddNote("every plane runs the same min-max weight optimizer at the destination site; only dissemination differs: PCE-CP pushes MappingUpdates to subscriber PCEs (one-RTT re-push), pull planes refresh their record and wait for TTL expiry (NERD: next poll), ideal does nothing")
		tbl.AddNote("peak/rebalance from offered inbound load sampled every %v after the event at t=%v; congested above %.2f of the %.0f Mbps provider links (steady-zipf halves provider 1); pull mapping TTL %ds, NERD poll %v",
			ps.sample, ps.tEvent, e11CongestedAt, float64(ps.capacity)/1e6, ps.ttl, ps.nerdPoll)
		tbl.AddNote("overload = offered bytes above link capacity (what a real link queues or drops); ctl/telemetry msgs counted from the event instant")
		return tbl
	})
	return cells, merge
}

// E11InboundTE runs E11 serially and returns its table.
func E11InboundTE(seed int64, quick bool) *metrics.Table {
	cells, merge := e11Experiment(seed, quick)
	return merge(runCells("E11", cells, runner.Serial))[0]
}
