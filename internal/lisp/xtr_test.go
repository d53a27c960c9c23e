package lisp

import (
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

// lispWorld is the canonical two-site LISP test topology:
//
//	hS(100.1.0.5) — xtrS(RLOC 10.0.0.1) — core — xtrD(RLOC 12.0.0.1) — hD(100.2.0.9)
//
// EIDs live in 100.0.0.0/8 and are NOT routable in the core; only RLOC
// prefixes 10/8 and 12/8 are.
type lispWorld struct {
	sim        *simnet.Sim
	hS, hD     *simnet.Node
	core       *simnet.Node
	xtrS, xtrD *XTR
	eidS, eidD netaddr.Addr
}

func eidSpace() netaddr.Prefix { return netaddr.MustParsePrefix("100.0.0.0/8") }

func newLISPWorld(t testing.TB, cfgS XTRConfig) *lispWorld {
	t.Helper()
	s := simnet.New(1)
	w := &lispWorld{sim: s}
	w.hS = s.NewNode("hS")
	w.hD = s.NewNode("hD")
	w.core = s.NewNode("core")
	xtrSNode := s.NewNode("xtrS")
	xtrDNode := s.NewNode("xtrD")

	w.eidS = netaddr.MustParseAddr("100.1.0.5")
	w.eidD = netaddr.MustParseAddr("100.2.0.9")

	cfg := simnet.LinkConfig{Delay: 2 * time.Millisecond}
	wan := simnet.LinkConfig{Delay: 20 * time.Millisecond}

	lS := simnet.Connect(w.hS, xtrSNode, cfg)
	lS.A().SetAddr(w.eidS)
	lS.B().SetAddr(netaddr.MustParseAddr("100.1.0.254"))
	w.hS.SetDefaultRoute(lS.A())

	lD := simnet.Connect(w.hD, xtrDNode, cfg)
	lD.A().SetAddr(w.eidD)
	lD.B().SetAddr(netaddr.MustParseAddr("100.2.0.254"))
	w.hD.SetDefaultRoute(lD.A())

	lSC := simnet.Connect(xtrSNode, w.core, wan)
	lSC.A().SetAddr(netaddr.MustParseAddr("10.0.0.1"))
	lSC.B().SetAddr(netaddr.MustParseAddr("10.0.0.2"))
	lDC := simnet.Connect(xtrDNode, w.core, wan)
	lDC.A().SetAddr(netaddr.MustParseAddr("12.0.0.1"))
	lDC.B().SetAddr(netaddr.MustParseAddr("12.0.0.2"))

	// Core routes RLOC space only — EIDs are unroutable there, as in LISP.
	w.core.AddRoute(netaddr.MustParsePrefix("10.0.0.0/8"), lSC.B())
	w.core.AddRoute(netaddr.MustParsePrefix("12.0.0.0/8"), lDC.B())

	xtrSNode.SetDefaultRoute(lSC.A())
	xtrSNode.AddRoute(netaddr.MustParsePrefix("100.1.0.0/16"), lS.B())
	xtrDNode.SetDefaultRoute(lDC.A())
	xtrDNode.AddRoute(netaddr.MustParsePrefix("100.2.0.0/16"), lD.B())

	if cfgS.RLOC == 0 {
		cfgS.RLOC = netaddr.MustParseAddr("10.0.0.1")
	}
	cfgS.LocalEIDs = netaddr.MustParsePrefix("100.1.0.0/16")
	cfgS.EIDSpace = eidSpace()
	w.xtrS = NewXTR(s, xtrSNode, cfgS)
	w.xtrD = NewXTR(s, xtrDNode, XTRConfig{
		RLOC:      netaddr.MustParseAddr("12.0.0.1"),
		LocalEIDs: netaddr.MustParsePrefix("100.2.0.0/16"),
		EIDSpace:  eidSpace(),
	})
	return w
}

// sendData sends a UDP data packet from hS to hD.
func (w *lispWorld) sendData(payload string) {
	w.hS.SendUDP(w.eidS, w.eidD, 40000, 9000, packet.Payload(payload))
}

// dMapping is the prefix mapping for site D.
func dMapping() *MapEntry {
	return &MapEntry{
		EIDPrefix: netaddr.MustParsePrefix("100.2.0.0/16"),
		Locators:  []packet.LISPLocator{loc("12.0.0.1", 1, 100)},
	}
}

func TestEncapDecapDelivery(t *testing.T) {
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissDrop})
	w.xtrS.InstallMapping(dMapping())
	var got string
	var at simnet.Time
	w.hD.ListenUDP(9000, func(d *simnet.Delivery, udp *packet.UDP) {
		got = string(udp.LayerPayload())
		at = w.sim.Now()
	})
	w.sendData("through the tunnel")
	w.sim.Run()
	if got != "through the tunnel" {
		t.Fatalf("payload = %q", got)
	}
	// Path: hS->xtrS 2ms, xtrS->core 20ms, core->xtrD 20ms, xtrD->hD 2ms.
	if at != 44*time.Millisecond {
		t.Fatalf("delivered at %v, want 44ms", at)
	}
	if w.xtrS.Stats().EncapPackets != 1 || w.xtrD.Stats().DecapPackets != 1 {
		t.Fatalf("encap=%d decap=%d", w.xtrS.Stats().EncapPackets, w.xtrD.Stats().DecapPackets)
	}
}

func TestEIDsUnroutableWithoutMapping(t *testing.T) {
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissDrop})
	delivered := false
	w.hD.ListenUDP(9000, func(*simnet.Delivery, *packet.UDP) { delivered = true })
	w.sendData("lost")
	w.sim.Run()
	if delivered {
		t.Fatal("packet must not reach hD without a mapping")
	}
	if w.xtrS.Stats().CacheMissDrops != 1 {
		t.Fatalf("CacheMissDrops = %d", w.xtrS.Stats().CacheMissDrops)
	}
}

func TestMissQueueReplaysInOrder(t *testing.T) {
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissQueue})
	var got []string
	w.hD.ListenUDP(9000, func(d *simnet.Delivery, udp *packet.UDP) {
		got = append(got, string(udp.LayerPayload()))
	})
	w.sendData("one")
	w.sendData("two")
	w.sim.RunFor(100 * time.Millisecond)
	if len(got) != 0 {
		t.Fatal("nothing may be delivered before the mapping arrives")
	}
	if w.xtrS.Stats().QueuedPackets != 2 {
		t.Fatalf("queued = %d", w.xtrS.Stats().QueuedPackets)
	}
	w.xtrS.InstallMapping(dMapping())
	w.sim.Run()
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("replayed = %v", got)
	}
	if w.xtrS.Stats().Replayed != 2 {
		t.Fatalf("Replayed = %d", w.xtrS.Stats().Replayed)
	}
}

func TestMissQueueCapacity(t *testing.T) {
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissQueue, QueueCapPerEID: 2})
	for i := 0; i < 5; i++ {
		w.sendData("x")
	}
	w.sim.RunFor(10 * time.Millisecond)
	if w.xtrS.Stats().QueuedPackets != 2 || w.xtrS.Stats().QueueOverflows != 3 {
		t.Fatalf("queued=%d overflow=%d", w.xtrS.Stats().QueuedPackets, w.xtrS.Stats().QueueOverflows)
	}
}

func TestMissQueueTimeout(t *testing.T) {
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissQueue, QueueTimeout: 500 * time.Millisecond})
	w.sendData("doomed")
	w.sim.RunFor(2 * time.Second)
	if w.xtrS.Stats().QueueTimeouts != 1 {
		t.Fatalf("QueueTimeouts = %d", w.xtrS.Stats().QueueTimeouts)
	}
	// A late mapping must not resurrect timed-out packets.
	delivered := false
	w.hD.ListenUDP(9000, func(*simnet.Delivery, *packet.UDP) { delivered = true })
	w.xtrS.InstallMapping(dMapping())
	w.sim.Run()
	if delivered {
		t.Fatal("timed-out packet must not be replayed")
	}
}

func TestResolverIntegration(t *testing.T) {
	resolveDelay := 150 * time.Millisecond
	var w *lispWorld
	resolver := ResolverFunc(func(eid netaddr.Addr, done func(*MapEntry, bool)) {
		w.sim.ScheduleFunc(resolveDelay, func() { done(dMapping(), true) })
	})
	w = newLISPWorld(t, XTRConfig{MissPolicy: MissDrop, Resolver: resolver})
	delivered := 0
	w.hD.ListenUDP(9000, func(*simnet.Delivery, *packet.UDP) { delivered++ })
	w.sendData("first")  // dropped, triggers resolution
	w.sendData("second") // dropped, resolution already in flight
	w.sim.RunFor(100 * time.Millisecond)
	if w.xtrS.Stats().ResolutionsStarted != 1 {
		t.Fatalf("resolutions = %d, want 1 (deduplicated)", w.xtrS.Stats().ResolutionsStarted)
	}
	w.sim.RunFor(100 * time.Millisecond) // resolution lands at 150ms+2ms
	w.sendData("third")
	w.sim.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want only the post-resolution packet", delivered)
	}
	if w.xtrS.Stats().CacheMissDrops != 2 {
		t.Fatalf("drops = %d", w.xtrS.Stats().CacheMissDrops)
	}
}

func TestResolverFailureCounted(t *testing.T) {
	var w *lispWorld
	resolver := ResolverFunc(func(eid netaddr.Addr, done func(*MapEntry, bool)) {
		w.sim.ScheduleFunc(10*time.Millisecond, func() { done(nil, false) })
	})
	w = newLISPWorld(t, XTRConfig{MissPolicy: MissDrop, Resolver: resolver})
	w.sendData("x")
	w.sim.Run()
	if w.xtrS.Stats().ResolutionsFailed != 1 {
		t.Fatalf("ResolutionsFailed = %d", w.xtrS.Stats().ResolutionsFailed)
	}
}

func TestFlowMappingPrecedenceAndSourceRLOC(t *testing.T) {
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissDrop})
	// Prefix mapping exists, but the flow entry overrides it with an
	// engineered source RLOC (the paper's independent one-way tunnels).
	w.xtrS.InstallMapping(dMapping())
	engineered := netaddr.MustParseAddr("10.77.0.1")
	w.xtrS.InstallFlow(w.eidS, w.eidD, engineered, netaddr.MustParseAddr("12.0.0.1"), 60)

	var outerSrcs []netaddr.Addr
	w.core.AddSniffer(func(d *simnet.Delivery) simnet.SnifferVerdict {
		src, _ := packet.PeekIPv4Src(d.Data)
		outerSrcs = append(outerSrcs, src)
		return simnet.SnifferPass
	})
	w.sendData("engineered")
	w.sim.Run()
	if len(outerSrcs) != 1 || outerSrcs[0] != engineered {
		t.Fatalf("outer sources = %v, want [%v]", outerSrcs, engineered)
	}
	if w.xtrS.Stats().FlowMappingsUsed != 1 {
		t.Fatalf("FlowMappingsUsed = %d", w.xtrS.Stats().FlowMappingsUsed)
	}
}

func TestInstallFlowReplaysQueued(t *testing.T) {
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissQueue})
	delivered := 0
	w.hD.ListenUDP(9000, func(*simnet.Delivery, *packet.UDP) { delivered++ })
	w.sendData("wait for the push")
	w.sim.RunFor(50 * time.Millisecond)
	w.xtrS.InstallFlow(w.eidS, w.eidD, w.xtrS.RLOC(), netaddr.MustParseAddr("12.0.0.1"), 60)
	w.sim.Run()
	if delivered != 1 || w.xtrS.Stats().Replayed != 1 {
		t.Fatalf("delivered=%d replayed=%d", delivered, w.xtrS.Stats().Replayed)
	}
}

func TestOnDecapFirstPacketFlag(t *testing.T) {
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissDrop})
	w.xtrS.InstallMapping(dMapping())
	var firsts []bool
	var outerSrc netaddr.Addr
	w.xtrD.OnDecap = func(info DecapInfo) {
		firsts = append(firsts, info.First)
		outerSrc = info.OuterSrc
		if info.InnerSrc != w.eidS || info.InnerDst != w.eidD {
			t.Errorf("inner pair = %v -> %v", info.InnerSrc, info.InnerDst)
		}
		if info.OuterDst != netaddr.MustParseAddr("12.0.0.1") {
			t.Errorf("outer dst = %v", info.OuterDst)
		}
	}
	w.hD.ListenUDP(9000, func(*simnet.Delivery, *packet.UDP) {})
	w.sendData("a")
	w.sendData("b")
	w.sim.Run()
	if len(firsts) != 2 || !firsts[0] || firsts[1] {
		t.Fatalf("firsts = %v, want [true false]", firsts)
	}
	if outerSrc != netaddr.MustParseAddr("10.0.0.1") {
		t.Fatalf("learned outer source = %v", outerSrc)
	}
}

func TestDecapRejectsForeignInnerDst(t *testing.T) {
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissDrop})
	// Hand-craft a tunnel packet whose inner destination is NOT in site
	// D's EID prefix; the ETR must drop it.
	inner := simnet.EncodeUDP(w.eidS, netaddr.MustParseAddr("100.3.0.1"), 1, 9000, packet.Payload("stray"))
	outerIP := &packet.IPv4{TTL: 64, Protocol: packet.IPProtocolUDP,
		SrcIP: netaddr.MustParseAddr("10.0.0.1"), DstIP: netaddr.MustParseAddr("12.0.0.1")}
	outerUDP := &packet.UDP{SrcPort: packet.PortLISPData, DstPort: packet.PortLISPData}
	outerUDP.SetNetworkLayerForChecksum(outerIP)
	data := packet.Serialize(outerIP, outerUDP, &packet.LISP{}, packet.Payload(inner))
	w.xtrS.host.(*simnet.Node).Send(data)
	w.sim.Run()
	if w.xtrD.Stats().DecapPackets != 0 {
		t.Fatalf("foreign inner dst decapsulated: %d", w.xtrD.Stats().DecapPackets)
	}
}

func TestTransitTrafficPassesThrough(t *testing.T) {
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissDrop})
	// RLOC-addressed traffic (outside EID space) is forwarded normally by
	// the xTR node, not intercepted.
	got := false
	w.core.ListenUDP(1111, func(*simnet.Delivery, *packet.UDP) { got = true })
	w.hS.SendUDP(w.eidS, netaddr.MustParseAddr("10.0.0.2"), 1, 1111, packet.Payload("transit"))
	w.sim.Run()
	if !got {
		t.Fatal("non-EID traffic must pass through the xTR")
	}
	if w.xtrS.Stats().EncapPackets != 0 || w.xtrS.Stats().CacheMissDrops != 0 {
		t.Fatal("non-EID traffic must not touch the LISP path")
	}
}

func TestIntraSiteTrafficNotEncapsulated(t *testing.T) {
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissDrop})
	// hS -> another host in its own site: the xTR must not intercept.
	got := false
	w.xtrS.host.(*simnet.Node).Ifaces() // silence unused warnings in some configs
	w.hS.SendUDP(w.eidS, netaddr.MustParseAddr("100.1.0.254"), 1, 2222, packet.Payload("local"))
	w.xtrS.host.(*simnet.Node).ListenUDP(2222, func(*simnet.Delivery, *packet.UDP) { got = true })
	w.sim.Run()
	if !got {
		t.Fatal("intra-site traffic must be delivered")
	}
	if w.xtrS.Stats().EncapPackets != 0 {
		t.Fatal("intra-site traffic must not be encapsulated")
	}
}

func TestMissPolicyString(t *testing.T) {
	if MissDrop.String() != "drop" || MissQueue.String() != "queue" || MissPolicy(9).String() != "?" {
		t.Fatal("MissPolicy names wrong")
	}
}

// BenchmarkEncapPath measures the ITR encap hot path in isolation: one
// established-flow packet through handleOutbound (pin hit, template
// patch, transmit). Accumulated in-flight frames drain outside the timer
// every 256 packets, so decap and host-side delivery stay out of the
// measurement.
func BenchmarkEncapPath(b *testing.B) {
	w := newLISPWorld(b, XTRConfig{MissPolicy: MissDrop})
	w.xtrS.InstallMapping(dMapping())
	w.hD.ListenUDP(9000, func(*simnet.Delivery, *packet.UDP) {})
	w.sendData("warm")
	w.sim.Run()
	data := simnet.EncodeUDP(w.eidS, w.eidD, 40000, 9000, packet.Payload("benchmark-payload"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.xtrS.handleOutbound(w.eidS, w.eidD, data)
		if i%256 == 255 {
			b.StopTimer()
			w.sim.Run()
			b.StartTimer()
		}
	}
	b.StopTimer()
	w.sim.Run()
}

// BenchmarkEncapPathE2E is the end-to-end variant (the pre-PR 6 shape of
// BenchmarkEncapPath): one packet from source host to destination host
// per op, including decap and both hosts' processing. Kept for the perf
// trajectory in EXPERIMENTS.md.
func BenchmarkEncapPathE2E(b *testing.B) {
	w := newLISPWorld(b, XTRConfig{MissPolicy: MissDrop})
	w.xtrS.InstallMapping(dMapping())
	w.hD.ListenUDP(9000, func(*simnet.Delivery, *packet.UDP) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.sendData("bench")
		w.sim.Run()
	}
}

// TestQueueExpiryTimerCoalesced is the timer-storm regression: however
// many packets queue for one EID, exactly one expiry timer is
// outstanding, re-armed at the head-of-queue deadline.
func TestQueueExpiryTimerCoalesced(t *testing.T) {
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissQueue, QueueTimeout: time.Second})
	w.sendData("a")
	w.sim.RunFor(10 * time.Millisecond)
	w.sendData("b")
	w.sim.RunFor(10 * time.Millisecond)
	w.sendData("c")
	w.sim.RunFor(10 * time.Millisecond)
	if w.xtrS.Stats().QueuedPackets != 3 {
		t.Fatalf("queued = %d", w.xtrS.Stats().QueuedPackets)
	}
	if len(w.xtrS.queueTimer) != 1 {
		t.Fatalf("outstanding queue timers = %d, want 1", len(w.xtrS.queueTimer))
	}
	// The staggered deadlines still fire: all three time out.
	w.sim.RunFor(2 * time.Second)
	if w.xtrS.Stats().QueueTimeouts != 3 {
		t.Fatalf("timeouts = %d", w.xtrS.Stats().QueueTimeouts)
	}
	if len(w.xtrS.queue) != 0 || len(w.xtrS.queueTimer) != 0 {
		t.Fatalf("queue=%d timers=%d leaked", len(w.xtrS.queue), len(w.xtrS.queueTimer))
	}
}

// TestMissQueueOverflowThenReplay checks the overflow accounting at
// QueueCapPerEID stays consistent through a late replay: capacity-bounded
// queueing, overflow drops, then exactly the buffered packets replay.
func TestMissQueueOverflowThenReplay(t *testing.T) {
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissQueue, QueueCapPerEID: 2})
	delivered := 0
	w.hD.ListenUDP(9000, func(*simnet.Delivery, *packet.UDP) { delivered++ })
	for i := 0; i < 5; i++ {
		w.sendData("x")
	}
	w.sim.RunFor(10 * time.Millisecond)
	if w.xtrS.Stats().QueuedPackets != 2 || w.xtrS.Stats().QueueOverflows != 3 {
		t.Fatalf("queued=%d overflow=%d", w.xtrS.Stats().QueuedPackets, w.xtrS.Stats().QueueOverflows)
	}
	w.xtrS.InstallMapping(dMapping())
	w.sim.Run()
	if delivered != 2 || w.xtrS.Stats().Replayed != 2 {
		t.Fatalf("delivered=%d replayed=%d, want the 2 buffered packets only", delivered, w.xtrS.Stats().Replayed)
	}
	if w.xtrS.Stats().QueueTimeouts != 0 {
		t.Fatalf("timeouts = %d", w.xtrS.Stats().QueueTimeouts)
	}
}

// TestInstallFlowMultiSourceQueue queues packets from two local sources
// to one destination EID; a late per-flow install must replay only its
// own source's packets and keep the rest queued.
func TestInstallFlowMultiSourceQueue(t *testing.T) {
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissQueue})
	otherSrc := netaddr.MustParseAddr("100.1.0.6")
	var got []string
	w.hD.ListenUDP(9000, func(d *simnet.Delivery, udp *packet.UDP) {
		got = append(got, string(udp.LayerPayload()))
	})
	w.sendData("from-five")
	w.hS.SendUDP(otherSrc, w.eidD, 40000, 9000, packet.Payload("from-six"))
	w.sim.RunFor(50 * time.Millisecond)
	if w.xtrS.Stats().QueuedPackets != 2 {
		t.Fatalf("queued = %d", w.xtrS.Stats().QueuedPackets)
	}
	// Install the flow for otherSrc only.
	w.xtrS.InstallFlow(otherSrc, w.eidD, w.xtrS.RLOC(), netaddr.MustParseAddr("12.0.0.1"), 60)
	w.sim.RunFor(100 * time.Millisecond)
	if len(got) != 1 || got[0] != "from-six" {
		t.Fatalf("replayed = %v, want only the matching source's packet", got)
	}
	if len(w.xtrS.queue[w.eidD]) != 1 {
		t.Fatalf("remaining queue = %d, want eidS's packet kept", len(w.xtrS.queue[w.eidD]))
	}
	// The prefix mapping then releases the remaining packet.
	w.xtrS.InstallMapping(dMapping())
	w.sim.Run()
	if len(got) != 2 || got[1] != "from-five" {
		t.Fatalf("final deliveries = %v", got)
	}
	if w.xtrS.Stats().Replayed != 2 {
		t.Fatalf("replayed = %d", w.xtrS.Stats().Replayed)
	}
}

// TestNegativeCacheSuppressesResolutionStorm: after an authoritative
// negative answer, repeated misses inside the negative TTL must not
// re-trigger the mapping system; after expiry the retry goes through.
func TestNegativeCacheSuppressesResolutionStorm(t *testing.T) {
	var w *lispWorld
	attempts := 0
	resolver := ResolverFunc(func(eid netaddr.Addr, done func(*MapEntry, bool)) {
		attempts++
		fail := attempts == 1
		w.sim.ScheduleFunc(10*time.Millisecond, func() {
			if fail {
				// Authoritative negative, as a map-server would answer.
				done(&MapEntry{EIDPrefix: netaddr.HostPrefix(eid), Negative: true}, false)
			} else {
				done(dMapping(), true)
			}
		})
	})
	w = newLISPWorld(t, XTRConfig{MissPolicy: MissDrop, Resolver: resolver, NegativeTTL: 5})
	w.sendData("one")
	w.sim.RunFor(time.Second)
	if attempts != 1 || w.xtrS.Stats().ResolutionsFailed != 1 {
		t.Fatalf("attempts=%d failed=%d", attempts, w.xtrS.Stats().ResolutionsFailed)
	}
	// Storm of retries inside the negative TTL: all suppressed.
	for i := 0; i < 10; i++ {
		w.sendData("retry")
	}
	w.sim.RunFor(time.Second)
	if attempts != 1 {
		t.Fatalf("negative cache failed to suppress: %d resolutions", attempts)
	}
	if w.xtrS.Stats().ResolutionsSuppressed == 0 {
		t.Fatal("suppressions not counted")
	}
	if w.xtrS.Cache.Stats().NegativeHits == 0 {
		t.Fatal("negative hits not counted")
	}
	// After the negative TTL, resolution retries and succeeds.
	w.sim.RunFor(5 * time.Second)
	delivered := false
	w.hD.ListenUDP(9000, func(*simnet.Delivery, *packet.UDP) { delivered = true })
	w.sendData("after-expiry") // miss, triggers the second resolution
	w.sim.RunFor(time.Second)
	w.sendData("now-cached")
	w.sim.Run()
	if attempts != 2 {
		t.Fatalf("attempts = %d, want retry after negative expiry", attempts)
	}
	if !delivered {
		t.Fatal("post-retry packet not delivered")
	}
}

// TestSeenSourcesPruned: first-packet flow records age out on the seen
// TTL, and an aged-out flow's next packet counts as First again.
func TestSeenSourcesPruned(t *testing.T) {
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissDrop})
	w.xtrS.InstallMapping(dMapping())
	w.hD.ListenUDP(9000, func(*simnet.Delivery, *packet.UDP) {})
	var firsts []bool
	w.xtrD.OnDecap = func(info DecapInfo) { firsts = append(firsts, info.First) }
	w.xtrD.SetSeenTTL(30 * time.Second)
	w.sendData("a")
	w.sim.RunFor(time.Second)
	if w.xtrD.SeenSources() != 1 {
		t.Fatalf("seen sources = %d", w.xtrD.SeenSources())
	}
	// Two sweep intervals of silence age the record out.
	w.sim.RunFor(70 * time.Second)
	if w.xtrD.SeenSources() != 0 {
		t.Fatalf("seen sources = %d after TTL, want 0", w.xtrD.SeenSources())
	}
	w.sendData("b")
	w.sim.RunFor(time.Second)
	if len(firsts) != 2 || !firsts[0] || !firsts[1] {
		t.Fatalf("firsts = %v, want the aged-out flow to be First again", firsts)
	}
}

// TestTransientFailureNotNegativeCached: a timeout-style failure (nil
// entry) must not poison the negative cache — the next packet retries.
func TestTransientFailureNotNegativeCached(t *testing.T) {
	var w *lispWorld
	attempts := 0
	resolver := ResolverFunc(func(eid netaddr.Addr, done func(*MapEntry, bool)) {
		attempts++
		w.sim.ScheduleFunc(10*time.Millisecond, func() { done(nil, false) })
	})
	w = newLISPWorld(t, XTRConfig{MissPolicy: MissDrop, Resolver: resolver})
	w.sendData("one")
	w.sim.RunFor(time.Second)
	w.sendData("two")
	w.sim.RunFor(time.Second)
	if attempts != 2 {
		t.Fatalf("attempts = %d, want a retry per packet after transient failures", attempts)
	}
	if w.xtrS.Cache.Stats().NegativeInserts != 0 {
		t.Fatal("transient failure must not enter the negative cache")
	}
	if w.xtrS.Stats().ResolutionsSuppressed != 0 {
		t.Fatal("nothing should be suppressed")
	}
}
