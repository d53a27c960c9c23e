package experiments

import (
	"encoding/binary"
	"fmt"
	"time"

	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/metrics"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runner"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

// E10 measures reconvergence after runtime failures — the claim behind
// the paper's "online IRC engine": a push-based control plane that
// *knows* about locator loss (RLOC probing at the ITRs, interface
// watches at the border) re-pushes affected flows within a probe
// interval, while pull-based planes keep blackholing into the stale
// cached mapping until its TTL expires and a re-resolution fetches the
// pruned locator set.
//
// One metered flow runs from domain 0 to domain 1 at a fixed packet
// rate; at Tfail a scripted FailurePlan injects one of three scenarios
// against the RLOC the flow is actually using:
//
//   - provider-cut: the destination's in-use provider customer link goes
//     down permanently;
//   - egress-flap: the source xTR's in-use egress interface goes down,
//     then recovers;
//   - brown-out: the destination's in-use provider link runs at 90%
//     loss for a window, then heals.
//
// Per cell we report packets blackholed after Tfail, the reconvergence
// time (Tfail until the last lost packet — censored at the window end
// for planes that never recover), and the control traffic spent during
// the failure window. Under the PCE control plane probing is enabled
// and reports feed Repush; under every other plane the only recovery
// paths are TTL expiry plus re-resolution (the site's own watch has
// already pruned its advertised record) or, for NERD, the next database
// poll. The idealized preinstalled plane has no control plane at all
// and bounds the do-nothing case.

// e10Scenario names one failure script.
type e10Scenario struct {
	key  string
	desc string
}

var e10Scenarios = []e10Scenario{
	{key: "provider-cut", desc: "destination provider customer link cut permanently"},
	{key: "egress-flap", desc: "source xTR egress interface down, later recovered"},
	{key: "brown-out", desc: "destination provider link at 90% loss, later healed"},
}

// e10Params sizes the sweep.
type e10Params struct {
	ttl      uint32      // mapping TTL seconds
	period   simnet.Time // metered-flow packet spacing
	tFail    simnet.Time // failure injection time
	flapLen  simnet.Time // egress-flap down time
	brownLen simnet.Time // brown-out duration
	tEnd     simnet.Time // simulation end (sending stops 2s earlier)
	nerdPoll simnet.Time // NERD authority poll interval
}

func e10Scale(quick bool) e10Params {
	if quick {
		return e10Params{ttl: 12, period: 50 * time.Millisecond, tFail: 8 * time.Second,
			flapLen: 10 * time.Second, brownLen: 10 * time.Second, tEnd: 28 * time.Second,
			nerdPoll: 4 * time.Second}
	}
	return e10Params{ttl: 20, period: 25 * time.Millisecond, tFail: 10 * time.Second,
		flapLen: 12 * time.Second, brownLen: 15 * time.Second, tEnd: 40 * time.Second,
		nerdPoll: 4 * time.Second}
}

// e10Result is one (scenario, control plane) cell outcome.
type e10Result struct {
	cp         CP
	scenario   string
	sent       int
	delivered  int
	preFail    int         // packets lost before the failure (cold-start)
	blackholed int         // packets sent after Tfail and never delivered
	reconv     simnet.Time // Tfail -> last post-fail loss (censored at window end)
	ctlMsgs    uint64      // control messages during the failure window
	probeMsgs  uint64      // probe/echo messages during the failure window
}

// e10Sender paces the metered flow with a typed timer, stamping each
// packet with its sequence number.
type e10Sender struct {
	node     *simnet.Node
	src, dst netaddr.Addr
	period   simnet.Time
	stopAt   simnet.Time
	sentAt   []simnet.Time
	payload  [8]byte
}

// OnTimer implements simnet.TimerHandler: send one packet, re-arm.
func (s *e10Sender) OnTimer(simnet.TimerArg) {
	now := s.node.Sim().Now()
	if now > s.stopAt {
		return
	}
	binary.BigEndian.PutUint64(s.payload[:], uint64(len(s.sentAt)))
	s.sentAt = append(s.sentAt, now)
	s.node.SendUDP(s.src, s.dst, 40000, e10Port, packet.Payload(s.payload[:]))
	s.node.Sim().ScheduleTimer(s.period, s, simnet.TimerArg{})
}

const e10Port = 7100

// e10FlowRLOCs returns the outer (src, dst) RLOC pair the source ITR
// would stamp right now for the metered flow — the failure scripts
// target what the data plane actually uses, not a fixed provider.
func e10FlowRLOCs(w *World, src, dst netaddr.Addr) (netaddr.Addr, netaddr.Addr) {
	x := w.In.Domains[0].XTRs[0]
	if fe, ok := x.Flows.Lookup(lisp.FlowKey{Src: src, Dst: dst}); ok {
		return fe.SrcRLOC, fe.DstRLOC
	}
	if e, ok := x.Cache.Lookup(dst); ok {
		h := packet.NewFlow(packet.NewIPv4Endpoint(src), packet.NewIPv4Endpoint(dst)).FastHash()
		if loc, usable := e.SelectLocator(h); usable {
			return x.RLOC(), loc.Addr
		}
	}
	return x.RLOC(), 0
}

// e10RunCell runs one control plane through one failure scenario.
func e10RunCell(cp CP, scenario string, seed int64, ps e10Params) e10Result {
	// The shortened TTL is the *pull-cache staleness horizon* — the axis
	// under test. The PCE keeps its default push TTL: its staleness
	// bound is the probe interval, not the record lifetime (shortening
	// it would only make its pushed flows expire mid-window with no
	// resolver to fall back to, measuring TTL policy instead of
	// reconvergence).
	ttl := ps.ttl
	if cp == CPPCE {
		ttl = 0
	}
	w := BuildWorld(WorldConfig{
		CP: cp, Domains: 2, HostsPerDomain: 1, Seed: seed,
		MissPolicy: lisp.MissDrop,
		MappingTTL: ttl, NERDPoll: ps.nerdPoll, WatchSites: true,
	})
	w.Settle()
	if cp == CPPCE {
		w.EnableProbing(lisp.ProbeConfig{Interval: time.Second, FailAfter: 2, RecoverAfter: 2})
	}
	d0, d1 := w.In.Domains[0], w.In.Domains[1]
	src, dst := d0.Hosts[0], d1.Hosts[0]

	// The listener runs on the destination's shard, so it must read that
	// shard's clock; the map is only read back after the run.
	dstSim := dst.Node.Sim()
	recvAt := make(map[uint64]simnet.Time)
	dst.Node.ListenUDP(e10Port, func(d *simnet.Delivery, udp *packet.UDP) {
		p := udp.LayerPayload()
		if len(p) >= 8 {
			recvAt[binary.BigEndian.Uint64(p)] = dstSim.Now()
		}
	})

	sender := &e10Sender{
		node: src.Node, src: src.Addr, dst: dst.Addr,
		period: ps.period, stopAt: ps.tEnd - 2*time.Second,
	}
	src.DNS.Lookup(dst.Name, func(_ netaddr.Addr, _ simnet.Time, ok bool) {
		if ok {
			sender.OnTimer(simnet.TimerArg{})
		}
	})

	// Just before Tfail, inspect which RLOCs the flow rides and script
	// the failure against them. The inspection is a world-wide snapshot,
	// so it runs at a global barrier: every shard quiescent, and the
	// FailurePlan free to arm timers on whichever shards own the targets.
	var ctl0, probe0 uint64
	w.At(ps.tFail-50*time.Millisecond, func() {
		srcRLOC, dstRLOC := e10FlowRLOCs(w, src.Addr, dst.Addr)
		plan := simnet.NewFailurePlan(w.Sim)
		switch scenario {
		case "provider-cut":
			for _, p := range d1.Providers {
				if p.RLOC == dstRLOC {
					plan.LinkDown(ps.tFail, p.Link)
				}
			}
		case "egress-flap":
			if ifc := d0.XTRs[0].Host().(*simnet.Node).IfaceByAddr(srcRLOC); ifc != nil {
				plan.IfaceDown(ps.tFail, ifc)
				plan.IfaceUp(ps.tFail+ps.flapLen, ifc)
			}
		case "brown-out":
			for _, p := range d1.Providers {
				if p.RLOC == dstRLOC {
					plan.SetLoss(ps.tFail, p.Link, 0.9)
					plan.SetLoss(ps.tFail+ps.brownLen, p.Link, 0)
				}
			}
		}
		plan.Schedule()
		msgs, _ := w.ControlTotals()
		ctl0, probe0 = msgs, w.ProbeMessages()
	})
	w.RunUntil(ps.tEnd)

	res := e10Result{cp: cp, scenario: scenario, sent: len(sender.sentAt)}
	lastLoss := simnet.Time(-1)
	// Packets sent just before Tfail can still be destroyed by it (they
	// are in flight when the link cuts), so the failure gets charged for
	// losses within one path-delay bound of the injection instant;
	// cold-start losses happen seconds earlier and cannot be confused.
	const pathGrace = 250 * time.Millisecond
	for seq, at := range sender.sentAt {
		if _, ok := recvAt[uint64(seq)]; ok {
			res.delivered++
			continue
		}
		if at < ps.tFail-pathGrace {
			res.preFail++
			continue
		}
		res.blackholed++
		if at > lastLoss {
			lastLoss = at
		}
	}
	if lastLoss >= 0 {
		if res.reconv = lastLoss + ps.period - ps.tFail; res.reconv < 0 {
			res.reconv = 0 // only in-flight losses at the cut instant
		}
	}
	msgs, _ := w.ControlTotals()
	res.ctlMsgs = msgs - ctl0
	res.probeMsgs = w.ProbeMessages() - probe0
	return res
}

// e10Experiment decomposes the sweep into one cell per
// (scenario, control plane) pair.
func e10Experiment(seed int64, quick bool) ([]Cell, MergeFunc) {
	ps := e10Scale(quick)
	var cells []Cell
	for _, sc := range e10Scenarios {
		for _, cp := range AllCPs {
			sc, cp := sc, cp
			cells = append(cells, Cell{
				Label: fmt.Sprintf("%s/%s", sc.key, cp),
				CP:    cp,
				Run:   func() interface{} { return e10RunCell(cp, sc.key, seed, ps) },
			})
		}
	}
	merge := tableMerge(func(results []interface{}) *metrics.Table {
		tbl := metrics.NewTable(
			"E10: blackholing and reconvergence after runtime failures (one metered flow)",
			"scenario", "control plane", "sent", "delivered", "cold-start loss",
			"blackholed", "reconverge s", "ctl msgs", "probe msgs")
		for _, r := range results {
			if r == nil {
				continue
			}
			c := r.(e10Result)
			tbl.AddRow(c.scenario, string(c.cp), c.sent, c.delivered, c.preFail,
				c.blackholed, float64(c.reconv)/float64(time.Second), c.ctlMsgs, c.probeMsgs)
		}
		tbl.AddNote("failure at t=%v against the RLOC the flow is using; packets every %v until t=%v; pull mapping TTL %ds (PCE pushes keep their default TTL), NERD poll %v",
			ps.tFail, ps.period, ps.tEnd-2*time.Second, ps.ttl, ps.nerdPoll)
		tbl.AddNote("reconverge = failure to last lost packet (window end = never recovered); PCE-CP probes every 1s and re-pushes, pull planes wait for TTL expiry, ideal does nothing")
		tbl.AddNote("ctl/probe msgs counted from the failure instant to the window end")
		return tbl
	})
	return cells, merge
}

// E10FailureReconvergence runs E10 serially and returns its table.
func E10FailureReconvergence(seed int64, quick bool) *metrics.Table {
	cells, merge := e10Experiment(seed, quick)
	return merge(runCells("E10", cells, runner.Serial))[0]
}
