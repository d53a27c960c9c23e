// RLOC probing: the xTR's liveness layer for the failure-injection
// subsystem. A probing xTR periodically sends Map-Request probes (the P
// bit of RFC-to-be 6830) to every remote locator its data plane could
// select, answers probes aimed at itself with Map-Reply echoes, and
// flips the Reachable bit of its map-cache locators with loss-tolerant
// hysteresis: only FailAfter consecutive unanswered probes take a
// locator down, and RecoverAfter consecutive echoes bring it back. It
// also watches the admin/link state of its own registered egress RLOCs,
// the instantly-visible local half of a failure. Both transitions are
// reported through hooks, which is how the PCE control plane learns to
// Repush affected flows while pull-based planes wait for TTL expiry.
package lisp

import (
	"sort"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/obs"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// ProbeConfig tunes xTR RLOC probing.
type ProbeConfig struct {
	// Interval is the per-target probe period (default 1s). A probe
	// unanswered by the next tick counts as a miss.
	Interval runtime.Time
	// FailAfter is the consecutive-miss count that takes a locator down
	// (default 2) — the loss-tolerant half of the hysteresis.
	FailAfter int
	// RecoverAfter is the consecutive-echo count that brings a downed
	// locator back (default 2).
	RecoverAfter int
}

func (c *ProbeConfig) fill() {
	if c.Interval == 0 {
		c.Interval = time.Second
	}
	if c.FailAfter == 0 {
		c.FailAfter = 2
	}
	if c.RecoverAfter == 0 {
		c.RecoverAfter = 2
	}
}

// probeState is one remote locator's liveness bookkeeping.
type probeState struct {
	up       bool
	misses   int
	hits     int
	awaiting bool
	nonce    uint64
}

// egressWatch is one local RLOC whose interface state the prober
// mirrors.
type egressWatch struct {
	rloc netaddr.Addr
	up   bool
}

// EnableProbing starts RLOC probing on the xTR: it binds the probe port,
// begins the periodic tick, and from then on maintains per-locator
// liveness for every remote RLOC appearing in the map-cache, plus the
// registered local egress watches. Callers wire OnReachability /
// OnEgressState before or after; transitions before wiring are only
// reflected in the cache's Reachable bits.
func (x *XTR) EnableProbing(cfg ProbeConfig) {
	if x.probing {
		return
	}
	cfg.fill()
	x.probeCfg = cfg
	x.probing = true
	x.probes = make(map[netaddr.Addr]*probeState)
	x.host.BindUDP(x.cfg.RLOC, packet.PortRLOCProbe, x.HandleProbe)
	x.rt.ScheduleTimer(cfg.Interval, x, runtime.TimerArg{Kind: xtrTimerProbeTick})
}

// Probing reports whether probing is enabled.
func (x *XTR) Probing() bool { return x.probing }

// WatchEgress registers a local egress RLOC whose interface state the
// prober checks every tick (deploy code calls this for each provider
// attachment). Duplicate registrations are ignored. The watch is inert
// until EnableProbing.
func (x *XTR) WatchEgress(rloc netaddr.Addr) {
	for _, w := range x.egress {
		if w.rloc == rloc {
			return
		}
	}
	x.egress = append(x.egress, egressWatch{rloc: rloc, up: true})
}

// LocatorUp reports the prober's current belief about a remote locator
// (true for locators never probed).
func (x *XTR) LocatorUp(rloc netaddr.Addr) bool {
	if st, ok := x.probes[rloc]; ok {
		return st.up
	}
	return true
}

// probeTick runs one probing round: refresh the local egress watches,
// time out unanswered probes, and send a fresh probe to every remote
// locator the data plane could currently select.
func (x *XTR) probeTick() {
	// Local egress state first: it is authoritative (interface down is
	// known instantly, no probes needed) and gates the remote probes —
	// a probe whose egress is dead says nothing about the remote end.
	for i := range x.egress {
		w := &x.egress[i]
		up := x.host.AddrUp(w.rloc)
		if up == w.up {
			continue
		}
		w.up = up
		if up {
			x.met.EgressUps.Inc()
		} else {
			x.met.EgressDowns.Inc()
		}
		if x.OnEgressState != nil {
			x.OnEgressState(w.rloc, up)
		}
	}

	// Collect the probe targets: every locator address in the map-cache
	// (reachable or not — downed locators must keep being probed to
	// recover), deduplicated and sorted so the nonce draws from the
	// simulation RNG stay deterministic.
	targets := x.probeTargets[:0]
	x.Cache.Walk(func(_ netaddr.Prefix, e *MapEntry) bool {
		if e.Negative {
			return true
		}
		for i := range e.Locators {
			a := e.Locators[i].Addr
			if a.IsValid() && !x.host.HasAddr(a) {
				targets = append(targets, a)
			}
		}
		return true
	})
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	x.probeTargets = targets

	prev := netaddr.Addr(0)
	for _, target := range targets {
		if target == prev {
			continue
		}
		prev = target
		st := x.probes[target]
		if st == nil {
			st = &probeState{up: true}
			x.probes[target] = st
		}
		// Only probe (or judge) through a live egress: with the local
		// route down, both an outgoing probe and a returning echo are
		// doomed locally, so an unanswered round says nothing about the
		// remote end — discard it unjudged instead of counting a miss.
		if !x.host.RouteUp(target) {
			st.awaiting = false
			x.met.ProbesSkipped.Inc()
			continue
		}
		if st.awaiting {
			// Last round's probe went unanswered over a live egress.
			st.awaiting = false
			st.hits = 0
			st.misses++
			x.met.ProbeTimeouts.Inc()
			if st.up && st.misses >= x.probeCfg.FailAfter {
				st.up = false
				st.misses = 0
				x.met.LocatorDowns.Inc()
				x.applyReachability(target, false)
			}
		}
		st.nonce = x.rt.Rand().Uint64()
		st.awaiting = true
		x.met.ProbesSent.Inc()
		x.host.OutputUDP(x.cfg.RLOC, target, packet.PortRLOCProbe, packet.PortRLOCProbe,
			&packet.LISPMapRequest{
				Probe:       true,
				Nonce:       st.nonce,
				ITRRLOCs:    []netaddr.Addr{x.cfg.RLOC},
				EIDPrefixes: []netaddr.Prefix{netaddr.HostPrefix(target)},
			})
	}
	x.rt.ScheduleTimer(x.probeCfg.Interval, x, runtime.TimerArg{Kind: xtrTimerProbeTick})
}

// HandleProbe processes probe traffic on the probe port: Map-Request
// probes aimed at one of our RLOCs are echoed, Map-Reply echoes feed the
// hysteresis. src/dst are the outer IPv4 addresses.
func (x *XTR) HandleProbe(src, dst netaddr.Addr, udp *packet.UDP) {
	pk := packet.NewPacket(udp.LayerPayload(), packet.LayerTypeLISPControl, packet.NoCopy)
	if req, ok := pk.Layer(packet.LayerTypeLISPMapRequest).(*packet.LISPMapRequest); ok && req != nil {
		if !req.Probe || len(req.ITRRLOCs) == 0 {
			return
		}
		probed := dst
		x.met.ProbeRepliesSent.Inc()
		x.host.OutputUDP(probed, req.ITRRLOCs[0], packet.PortRLOCProbe, packet.PortRLOCProbe,
			&packet.LISPMapReply{Probe: true, Nonce: req.Nonce})
		return
	}
	rep, ok := pk.Layer(packet.LayerTypeLISPMapReply).(*packet.LISPMapReply)
	if !ok || rep == nil || !rep.Probe {
		return
	}
	st, ok := x.probes[src]
	if !ok || !st.awaiting || st.nonce != rep.Nonce {
		return
	}
	st.awaiting = false
	st.misses = 0
	x.met.ProbeAcks.Inc()
	if st.up {
		return
	}
	st.hits++
	if st.hits >= x.probeCfg.RecoverAfter {
		st.up = true
		st.hits = 0
		x.met.LocatorUps.Inc()
		x.applyReachability(src, true)
	}
}

// applyReachability flips the locator's R bit across the map-cache and
// reports the transition.
func (x *XTR) applyReachability(rloc netaddr.Addr, up bool) {
	x.Cache.SetLocatorReachable(rloc, up)
	kind := obs.KProbeDown
	if up {
		kind = obs.KProbeUp
	}
	x.rec.Record(obs.Event{At: x.rt.Now(), Kind: kind, Node: x.HostName(), RLOC: rloc})
	if x.OnReachability != nil {
		x.OnReachability(rloc, up)
	}
}
