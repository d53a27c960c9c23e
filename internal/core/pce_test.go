package core

import (
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/irc"
	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/simnet"
	"github.com/pcelisp/pcelisp/internal/topo"
)

// pceWorld is the paper's Fig. 1: two multihomed LISP domains with PCEs
// deployed on their DNS paths.
type pceWorld struct {
	in   *topo.Internet
	pces []*PCE
}

func newPCEWorld(t testing.TB, spec topo.Spec, policies ...irc.Policy) *pceWorld {
	t.Helper()
	in := topo.Build(spec)
	w := &pceWorld{in: in}
	for i, d := range in.Domains {
		policy := irc.Policy(irc.MinLatency{})
		if i < len(policies) && policies[i] != nil {
			policy = policies[i]
		}
		w.pces = append(w.pces, DeployDomain(d, policy))
	}
	return w
}

func defaultSpec() topo.Spec {
	return topo.Spec{
		Seed: 7,
		Domains: []topo.DomainSpec{
			{Hosts: 2, Providers: 2, MissPolicy: lisp.MissDrop},
			{Hosts: 2, Providers: 2, MissPolicy: lisp.MissDrop},
		},
	}
}

func TestStepsOneToEight(t *testing.T) {
	w := newPCEWorld(t, defaultSpec())
	sim := w.in.Sim
	d0, d1 := w.in.Domain(0), w.in.Domain(1)
	src, dst := d0.Hosts[0], d1.Hosts[0]

	var installAt, answerAt simnet.Time
	w.pces[0].OnEvent = func(ev Event) {
		if ev.Kind == EvFlowInstalled && installAt == 0 {
			installAt = ev.At
		}
	}
	var resolved netaddr.Addr
	ok := false
	src.DNS.Lookup(dst.Name, func(a netaddr.Addr, d simnet.Time, success bool) {
		resolved, answerAt, ok = a, sim.Now(), success
	})
	sim.RunFor(5 * time.Second)

	// Step 8: the host got the right answer through the re-encapsulated
	// path (7a did not corrupt the reply).
	if !ok || resolved != dst.Addr {
		t.Fatalf("DNS through PCE path: %v ok=%v", resolved, ok)
	}
	// Step 6 happened exactly once at the destination PCE.
	if w.pces[1].Stats().EncapRepliesSent != 1 {
		t.Fatalf("PCED encap replies = %d", w.pces[1].Stats().EncapRepliesSent)
	}
	// Step 7 happened at the source PCE.
	if w.pces[0].Stats().EncapRepliesReceived != 1 {
		t.Fatalf("PCES interceptions = %d", w.pces[0].Stats().EncapRepliesReceived)
	}
	// Step 1 IPC fired.
	if w.pces[0].Stats().IPCQueries == 0 {
		t.Fatal("step-1 IPC never fired")
	}
	// The headline property: the mapping was installed at the ITRs BEFORE
	// the host received its DNS answer.
	if installAt == 0 {
		t.Fatal("flow mapping never installed")
	}
	if installAt >= answerAt {
		t.Fatalf("mapping installed at %v, after DNS answer at %v", installAt, answerAt)
	}

	// Claim (i): the first data packet is neither dropped nor queued.
	delivered := 0
	dst.Node.ListenUDP(9000, func(*simnet.Delivery, *packet.UDP) { delivered++ })
	src.Node.SendUDP(src.Addr, dst.Addr, 40000, 9000, packet.Payload("first packet"))
	sim.RunFor(time.Second)
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	x0 := d0.XTRs[0]
	if x0.Stats().CacheMissDrops != 0 || x0.Stats().QueuedPackets != 0 {
		t.Fatalf("drops=%d queued=%d, claim (i) violated",
			x0.Stats().CacheMissDrops, x0.Stats().QueuedPackets)
	}
	if x0.Stats().FlowMappingsUsed != 1 {
		t.Fatalf("flow mappings used = %d", x0.Stats().FlowMappingsUsed)
	}

	// The ETR learned and distributed the reverse mapping; the PCED
	// database heard the multicast.
	if w.pces[1].Stats().ReversePushes == 0 {
		t.Fatal("reverse mapping never reached the PCED database")
	}
	// Two-way resolution: the return path needs no lookup and no drops.
	returned := 0
	src.Node.ListenUDP(9001, func(*simnet.Delivery, *packet.UDP) { returned++ })
	dst.Node.SendUDP(dst.Addr, src.Addr, 9000, 9001, packet.Payload("reply"))
	sim.RunFor(time.Second)
	if returned != 1 {
		t.Fatalf("returned = %d", returned)
	}
	x1 := d1.XTRs[0]
	if x1.Stats().CacheMissDrops != 0 {
		t.Fatalf("return-path drops = %d", x1.Stats().CacheMissDrops)
	}
	if x1.Stats().FlowMappingsUsed == 0 {
		t.Fatal("return path did not use the reverse flow mapping")
	}
}

func TestTdnsUnchangedByPCE(t *testing.T) {
	// Claim (ii): TDNS + Tmap ~= TDNS. The PCE path must not lengthen DNS
	// resolution: compare lookup latency with and without PCEs on an
	// otherwise identical world.
	measure := func(deploy bool) simnet.Time {
		in := topo.Build(defaultSpec())
		if deploy {
			for _, d := range in.Domains {
				DeployDomain(d, irc.MinLatency{})
			}
		}
		var tdns simnet.Time
		in.Domain(0).Hosts[0].DNS.Lookup(in.HostName(1, 0), func(a netaddr.Addr, d simnet.Time, ok bool) {
			if !ok {
				t.Fatal("lookup failed")
			}
			tdns = d
		})
		in.Sim.RunFor(5 * time.Second)
		return tdns
	}
	plain := measure(false)
	withPCE := measure(true)
	if plain == 0 || withPCE == 0 {
		t.Fatal("lookups did not complete")
	}
	// The PCE path adds two sniffer re-injections on the same links but
	// no extra round trips; allow a tiny constant for the PCE->DNSS hop
	// it replaces.
	if withPCE > plain+2*time.Millisecond {
		t.Fatalf("TDNS with PCE = %v, without = %v", withPCE, plain)
	}
}

func TestRepeatFlowFromPCEDatabase(t *testing.T) {
	// Second flow to the same destination, DNS answered from cache: the
	// PCES database serves the mapping with no remote exchange (and no
	// drops).
	w := newPCEWorld(t, defaultSpec())
	sim := w.in.Sim
	d0, d1 := w.in.Domain(0), w.in.Domain(1)

	d0.Hosts[0].DNS.Lookup(d1.Hosts[0].Name, func(netaddr.Addr, simnet.Time, bool) {})
	sim.RunFor(2 * time.Second)
	encapsBefore := w.pces[1].Stats().EncapRepliesSent

	// A different host, same destination name: resolver cache hit.
	done := false
	d0.Hosts[1].DNS.Lookup(d1.Hosts[0].Name, func(a netaddr.Addr, d simnet.Time, ok bool) { done = ok })
	sim.RunFor(2 * time.Second)
	if !done {
		t.Fatal("cached lookup failed")
	}
	if w.pces[1].Stats().EncapRepliesSent != encapsBefore {
		t.Fatal("cache-hit flow must not traverse PCED again")
	}
	if w.pces[0].Stats().CacheHitPushes != 1 {
		t.Fatalf("CacheHitPushes = %d", w.pces[0].Stats().CacheHitPushes)
	}
	// The new flow's tuple is installed: data flows without drops.
	delivered := false
	d1.Hosts[0].Node.ListenUDP(9100, func(*simnet.Delivery, *packet.UDP) { delivered = true })
	d0.Hosts[1].Node.SendUDP(d0.Hosts[1].Addr, d1.Hosts[0].Addr, 1, 9100, packet.Payload("x"))
	sim.RunFor(time.Second)
	if !delivered || d0.XTRs[0].Stats().CacheMissDrops != 0 {
		t.Fatalf("delivered=%v drops=%d", delivered, d0.XTRs[0].Stats().CacheMissDrops)
	}
}

func TestMapFetchFallback(t *testing.T) {
	// DNS cache hit + expired PCES database, but peer known: MapFetch.
	w := newPCEWorld(t, defaultSpec())
	sim := w.in.Sim
	d0, d1 := w.in.Domain(0), w.in.Domain(1)

	d0.Hosts[0].DNS.Lookup(d1.Hosts[0].Name, func(netaddr.Addr, simnet.Time, bool) {})
	sim.RunFor(2 * time.Second)

	// Force the database entry out (simulates mapping TTL expiry while
	// the DNS record is still cached).
	if !w.pces[0].RemoteMappings().Delete(d1.EIDPrefix) {
		t.Fatal("expected a learned mapping to delete")
	}
	done := false
	d0.Hosts[1].DNS.Lookup(d1.Hosts[0].Name, func(a netaddr.Addr, d simnet.Time, ok bool) { done = ok })
	sim.RunFor(2 * time.Second)
	if !done {
		t.Fatal("lookup failed")
	}
	if w.pces[0].Stats().MapFetches == 0 || w.pces[0].Stats().MapFetchReplies == 0 {
		t.Fatalf("fetches=%d replies=%d", w.pces[0].Stats().MapFetches, w.pces[0].Stats().MapFetchReplies)
	}
	if w.pces[1].Stats().MapFetches == 0 {
		t.Fatal("PCED never answered the fetch")
	}
	// The fetched mapping unblocks the flow.
	delivered := false
	d1.Hosts[0].Node.ListenUDP(9200, func(*simnet.Delivery, *packet.UDP) { delivered = true })
	d0.Hosts[1].Node.SendUDP(d0.Hosts[1].Addr, d1.Hosts[0].Addr, 1, 9200, packet.Payload("fetched"))
	sim.RunFor(time.Second)
	if !delivered {
		t.Fatal("data after MapFetch failed")
	}
}

func TestLegacyDestinationInterop(t *testing.T) {
	// Only the source domain deploys a PCE. DNS must still work (the
	// plain reply passes through) and nothing is pushed.
	in := topo.Build(defaultSpec())
	pce0 := DeployDomain(in.Domain(0), irc.MinLatency{})
	var ok bool
	in.Domain(0).Hosts[0].DNS.Lookup(in.HostName(1, 0), func(a netaddr.Addr, d simnet.Time, success bool) {
		ok = success
	})
	in.Sim.RunFor(5 * time.Second)
	if !ok {
		t.Fatal("lookup against legacy destination failed")
	}
	if pce0.Stats().EncapRepliesReceived != 0 || pce0.Stats().MappingPushes != 0 {
		t.Fatalf("unexpected PCE activity: %+v", pce0.Stats())
	}
	// Data falls back to the miss policy (drop here): claim (i) does not
	// hold without the control plane, which is the point of E1.
	in.Domain(0).Hosts[0].Node.SendUDP(in.Domain(0).Hosts[0].Addr, in.Domain(1).Hosts[0].Addr, 1, 9, packet.Payload("x"))
	in.Sim.RunFor(time.Second)
	if in.Domain(0).XTRs[0].Stats().CacheMissDrops != 1 {
		t.Fatalf("drops = %d", in.Domain(0).XTRs[0].Stats().CacheMissDrops)
	}
}

func TestSplitXTRsReverseSync(t *testing.T) {
	spec := defaultSpec()
	spec.Domains[1].SplitXTRs = true
	w := newPCEWorld(t, spec)
	sim := w.in.Sim
	d0, d1 := w.in.Domain(0), w.in.Domain(1)
	src, dst := d0.Hosts[0], d1.Hosts[0]

	src.DNS.Lookup(dst.Name, func(netaddr.Addr, simnet.Time, bool) {})
	sim.RunFor(2 * time.Second)
	dst.Node.ListenUDP(9300, func(*simnet.Delivery, *packet.UDP) {})
	src.Node.SendUDP(src.Addr, dst.Addr, 1, 9300, packet.Payload("first"))
	sim.RunFor(time.Second)

	// The reverse mapping must be installed at BOTH of d1's xTRs: the one
	// that decapsulated and its multicast sibling.
	fk := lisp.FlowKey{Src: dst.Addr, Dst: src.Addr}
	for i, x := range d1.XTRs {
		if _, ok := x.Flows.Lookup(fk); !ok {
			t.Fatalf("xTR %d missing the reverse mapping", i)
		}
	}
}

func TestIndependentOneWayTunnels(t *testing.T) {
	// Claim (iii): the source domain's ingress choice (RLOCS) differs
	// from the ITR's own RLOC, and return traffic follows it.
	spec := defaultSpec()
	// Pin d0's ingress to provider 1 while its xTR's own RLOC is
	// provider 0's address.
	w := newPCEWorld(t, spec, irc.Pinned{Index: 1}, irc.MinLatency{})
	sim := w.in.Sim
	d0, d1 := w.in.Domain(0), w.in.Domain(1)
	src, dst := d0.Hosts[0], d1.Hosts[0]

	src.DNS.Lookup(dst.Name, func(netaddr.Addr, simnet.Time, bool) {})
	sim.RunFor(2 * time.Second)

	fk := lisp.FlowKey{Src: src.Addr, Dst: dst.Addr}
	fe, ok := d0.XTRs[0].Flows.Lookup(fk)
	if !ok {
		t.Fatal("flow not installed")
	}
	if fe.SrcRLOC != d0.Providers[1].RLOC {
		t.Fatalf("engineered source RLOC = %v, want provider 1's %v", fe.SrcRLOC, d0.Providers[1].RLOC)
	}
	// Send data; the return packet must arrive via provider 1.
	dst.Node.ListenUDP(9400, func(*simnet.Delivery, *packet.UDP) {})
	src.Node.SendUDP(src.Addr, dst.Addr, 1, 9400, packet.Payload("fwd"))
	sim.RunFor(time.Second)
	before := d0.Providers[1].EgressIface.Peer().Counters().TxPackets
	src.Node.ListenUDP(9401, func(*simnet.Delivery, *packet.UDP) {})
	dst.Node.SendUDP(dst.Addr, src.Addr, 9400, 9401, packet.Payload("rev"))
	sim.RunFor(time.Second)
	after := d0.Providers[1].EgressIface.Peer().Counters().TxPackets
	if after != before+1 {
		t.Fatalf("return packets via provider 1: %d -> %d, want +1", before, after)
	}
}

func TestRepushMovesIngress(t *testing.T) {
	w := newPCEWorld(t, defaultSpec(), irc.Pinned{Index: 0}, irc.MinLatency{})
	sim := w.in.Sim
	d0, d1 := w.in.Domain(0), w.in.Domain(1)
	src, dst := d0.Hosts[0], d1.Hosts[0]

	src.DNS.Lookup(dst.Name, func(netaddr.Addr, simnet.Time, bool) {})
	sim.RunFor(2 * time.Second)
	fk := lisp.FlowKey{Src: src.Addr, Dst: dst.Addr}
	fe, _ := d0.XTRs[0].Flows.Lookup(fk)
	if fe.SrcRLOC != d0.Providers[0].RLOC {
		t.Fatalf("initial ingress = %v", fe.SrcRLOC)
	}

	// TE action: move inbound traffic to provider 1 and re-push.
	w.pces[0].Engine().SetPolicy(irc.Pinned{Index: 1})
	if n := w.pces[0].Repush(); n != 1 {
		t.Fatalf("repush moved %d flows", n)
	}
	sim.RunFor(time.Second)
	fe, _ = d0.XTRs[0].Flows.Lookup(fk)
	if fe.SrcRLOC != d0.Providers[1].RLOC {
		t.Fatalf("post-repush ingress = %v", fe.SrcRLOC)
	}

	// The next data packet carries the new RLOCS; the remote ETR detects
	// the change and re-announces the reverse mapping.
	reverseBefore := w.pces[1].Stats().ReversePushes
	dst.Node.ListenUDP(9500, func(*simnet.Delivery, *packet.UDP) {})
	src.Node.SendUDP(src.Addr, dst.Addr, 1, 9500, packet.Payload("a"))
	sim.RunFor(time.Second)
	src.Node.SendUDP(src.Addr, dst.Addr, 1, 9500, packet.Payload("b"))
	sim.RunFor(time.Second)
	if w.pces[1].Stats().ReversePushes <= reverseBefore {
		t.Fatal("RLOCS change did not re-trigger the reverse push")
	}
}

func TestPCEEngineAccessors(t *testing.T) {
	w := newPCEWorld(t, defaultSpec())
	p := w.pces[0]
	if p.Engine() == nil || !p.Addr().IsValid() {
		t.Fatal("accessors broken")
	}
	if len(p.XTRs()) != 1 {
		t.Fatalf("xTRs = %d", len(p.XTRs()))
	}
}

func TestPendingExpiry(t *testing.T) {
	// A lookup whose mapping never arrives (legacy destination) must not
	// leak pending state.
	in := topo.Build(defaultSpec())
	pce0 := DeployDomain(in.Domain(0), irc.MinLatency{})
	in.Domain(0).Hosts[0].DNS.Lookup(in.HostName(1, 0), func(netaddr.Addr, simnet.Time, bool) {})
	in.Sim.RunFor(30 * time.Second)
	if pce0.Stats().PendingExpired == 0 {
		t.Fatal("pending flow never expired")
	}
	if len(pce0.pending) != 0 {
		t.Fatalf("pending map leaked %d entries", len(pce0.pending))
	}
}

func TestFlowStringHashStable(t *testing.T) {
	a := flowStringHash(netaddr.MustParseAddr("100.1.1.1"), "h0.d1.example")
	b := flowStringHash(netaddr.MustParseAddr("100.1.1.1"), "h0.d1.example")
	c := flowStringHash(netaddr.MustParseAddr("100.1.1.2"), "h0.d1.example")
	if a != b || a == c {
		t.Fatal("hash must be stable and client-sensitive")
	}
}

func BenchmarkFullPCEFlowSetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := newPCEWorld(b, defaultSpec())
		done := false
		w.in.Domain(0).Hosts[0].DNS.Lookup(w.in.HostName(1, 0), func(netaddr.Addr, simnet.Time, bool) { done = true })
		w.in.Sim.RunFor(2 * time.Second)
		if !done {
			b.Fatal("setup failed")
		}
	}
}

// TestMapFetchEmptyFlowsNoPanic is the malformed-message regression: a
// truncated MapFetch that carries no flow record used to dereference
// msg.Flows[0] and crash the PCE node. It must be dropped after counting.
func TestMapFetchEmptyFlowsNoPanic(t *testing.T) {
	w := newPCEWorld(t, defaultSpec())
	sim := w.in.Sim
	msg := &packet.PCECP{
		Version: packet.PCECPVersion, Type: packet.PCECPMapFetch,
		Nonce: 42, PCEAddr: w.pces[1].Addr(),
		// Flows deliberately empty: the reply target is missing.
	}
	w.in.Domain(1).PCENode.SendUDP(w.pces[1].Addr(), w.pces[0].Addr(),
		packet.PortPCECP, packet.PortPCECP, msg)
	sim.RunFor(2 * time.Second) // panics here without the guard
	if w.pces[0].Stats().MapFetches == 0 {
		t.Fatal("malformed fetch never reached the PCE")
	}
	// A fetch with a zero reply target is equally unanswerable.
	bad := &packet.PCECP{
		Version: packet.PCECPVersion, Type: packet.PCECPMapFetch,
		Nonce: 43, PCEAddr: w.pces[1].Addr(),
		Flows: []packet.PCEFlowMapping{{DstEID: w.in.Domain(0).Hosts[0].Addr}},
	}
	w.in.Domain(1).PCENode.SendUDP(w.pces[1].Addr(), w.pces[0].Addr(),
		packet.PortPCECP, packet.PortPCECP, bad)
	sim.RunFor(2 * time.Second)
	// The PCE is still alive and serving: a real flow works end to end.
	delivered := false
	w.in.Domain(1).Hosts[0].Node.ListenUDP(9700, func(*simnet.Delivery, *packet.UDP) { delivered = true })
	w.in.Domain(0).Hosts[0].DNS.Lookup(w.in.HostName(1, 0), func(a netaddr.Addr, _ simnet.Time, ok bool) {
		if ok {
			w.in.Domain(0).Hosts[0].Node.SendUDP(w.in.Domain(0).Hosts[0].Addr, a, 1, 9700, packet.Payload("alive"))
		}
	})
	sim.RunFor(5 * time.Second)
	if !delivered {
		t.Fatal("PCE not serving after malformed fetches")
	}
}

// TestPCEStateMapsPruned is the unbounded-growth regression: pushed,
// lastOuter and the ETRs' first-packet records must drain after their
// mapping TTL passes with no traffic, so long-running simulations hold
// steady memory.
func TestPCEStateMapsPruned(t *testing.T) {
	w := newPCEWorld(t, defaultSpec())
	sim := w.in.Sim
	d0, d1 := w.in.Domain(0), w.in.Domain(1)
	src, dst := d0.Hosts[0], d1.Hosts[0]

	src.DNS.Lookup(dst.Name, func(netaddr.Addr, simnet.Time, bool) {})
	sim.RunFor(2 * time.Second)
	dst.Node.ListenUDP(9800, func(*simnet.Delivery, *packet.UDP) {})
	src.Node.SendUDP(src.Addr, dst.Addr, 1, 9800, packet.Payload("seed state"))
	sim.RunFor(2 * time.Second)

	if len(w.pces[0].pushed) == 0 {
		t.Fatal("no pushed-flow state to prune")
	}
	if len(w.pces[1].lastOuter) == 0 {
		t.Fatal("no lastOuter state to prune")
	}
	seen := 0
	for _, x := range d1.XTRs {
		seen += x.SeenSources()
	}
	if seen == 0 {
		t.Fatal("no first-packet state to prune")
	}

	// Two maintenance intervals (MappingTTL=300s) of silence: everything
	// tied to the expired mappings must be gone.
	sim.RunFor(700 * time.Second)
	for i, p := range w.pces {
		if n := len(p.pushed); n != 0 {
			t.Errorf("pce%d: pushed leaked %d entries", i, n)
		}
		if n := len(p.lastOuter); n != 0 {
			t.Errorf("pce%d: lastOuter leaked %d entries", i, n)
		}
	}
	for _, d := range w.in.Domains {
		for _, x := range d.XTRs {
			if n := x.SeenSources(); n != 0 {
				t.Errorf("%s: seenSources leaked %d entries", x.HostName(), n)
			}
		}
	}
}

// TestWeightUpdateMovesRemoteFlows drives the closed-loop TE actuator
// end to end: the destination PCE changes its locator weights, announces
// a MappingUpdate to its subscriber PCEs, and the source PCE re-pushes
// the live flow onto the new locator within one exchange — no TTL waits.
func TestWeightUpdateMovesRemoteFlows(t *testing.T) {
	// d1 pins its mapping to provider 0, so the flow's initial DstRLOC is
	// deterministic.
	w := newPCEWorld(t, defaultSpec(), irc.MinLatency{}, irc.Pinned{Index: 0})
	sim := w.in.Sim
	d0, d1 := w.in.Domain(0), w.in.Domain(1)
	src, dst := d0.Hosts[0], d1.Hosts[0]

	src.DNS.Lookup(dst.Name, func(netaddr.Addr, simnet.Time, bool) {})
	sim.RunFor(2 * time.Second)
	fk := lisp.FlowKey{Src: src.Addr, Dst: dst.Addr}
	fe, ok := d0.XTRs[0].Flows.Lookup(fk)
	if !ok || fe.DstRLOC != d1.Providers[0].RLOC {
		t.Fatalf("initial flow = %+v, %v", fe, ok)
	}
	if w.pces[1].Subscribers() == 0 {
		t.Fatal("destination PCE recorded no subscribers despite answering a lookup")
	}

	// TE action at the destination: tilt (nearly) all inbound weight onto
	// provider 1 and push the update.
	if n := w.pces[1].ApplyProviderWeights([]uint8{1, 255}); n == 0 {
		t.Fatal("ApplyProviderWeights announced to no subscribers")
	}
	sim.RunFor(time.Second)

	if got := w.pces[0].Stats().WeightUpdatesReceived; got != 1 {
		t.Fatalf("source PCE consumed %d weight updates", got)
	}
	if got := w.pces[0].Stats().WeightRepushes; got != 1 {
		t.Fatalf("weight repushes = %d", got)
	}
	fe, ok = d0.XTRs[0].Flows.Lookup(fk)
	if !ok || fe.DstRLOC != d1.Providers[1].RLOC {
		t.Fatalf("flow after weight update = %+v, %v (want DstRLOC %v)", fe, ok, d1.Providers[1].RLOC)
	}
	// The prefix-granularity state moved too: the source ITR cache holds
	// the updated vector for future flows.
	e, ok := d0.XTRs[0].Cache.Lookup(dst.Addr)
	if !ok || len(e.Locators) != 2 || e.Locators[1].Weight != 255 {
		t.Fatalf("cache entry after update = %+v, %v", e, ok)
	}

	// Subscribers are leased state: after a mapping lifetime of silence
	// the maintenance sweep must drop them.
	sim.RunFor(700 * time.Second)
	if n := w.pces[1].Subscribers(); n != 0 {
		t.Fatalf("subscribers leaked %d entries", n)
	}
}

// TestLoadReportReachesHook wires an xTR telemetry stream to the PCE and
// checks the OnLoadReport hook sees the samples.
func TestLoadReportReachesHook(t *testing.T) {
	w := newPCEWorld(t, defaultSpec())
	sim := w.in.Sim
	d0 := w.in.Domain(0)
	var got []packet.PCELoadRecord
	w.pces[0].OnLoadReport = func(_ netaddr.Addr, loads []packet.PCELoadRecord) {
		got = append(got, loads...)
	}
	links := make([]lisp.TelemetryLink, len(d0.Providers))
	for i, p := range d0.Providers {
		links[i] = lisp.TelemetryLink{RLOC: p.RLOC, Sample: p.EgressIface.GoodputBytes, CapacityBps: 4_000_000}
	}
	d0.XTRs[0].EnableTelemetry(lisp.TelemetryConfig{
		Collector: d0.PCEAddr, Interval: time.Second, Links: links,
	})
	sim.RunFor(3500 * time.Millisecond)
	if len(got) < 4 {
		t.Fatalf("hook saw %d load records, want one per link per interval", len(got))
	}
	if w.pces[0].Stats().LoadReports == 0 {
		t.Fatal("LoadReports stat not counted")
	}
	if d0.XTRs[0].Stats().TelemetryReports == 0 {
		t.Fatal("xTR telemetry stats not counted")
	}
	for _, lr := range got {
		if lr.CapacityBps != 4_000_000 || lr.WindowMs != 1000 {
			t.Fatalf("record = %+v", lr)
		}
	}
}
