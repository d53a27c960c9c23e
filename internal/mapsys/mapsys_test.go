package mapsys

import (
	"fmt"
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

var testKey = []byte("mapsys-test-key")

// msWorld is a hub-and-spoke internet with n LISP sites:
// site i owns EID prefix 100.(i+1).0.0/16 with RLOC 10.0.i.1, 15ms from
// the hub.
type msWorld struct {
	sim   *simnet.Sim
	hub   *simnet.Node
	sites []*Site
}

func newMSWorld(t testing.TB, n int) *msWorld {
	t.Helper()
	s := simnet.New(1)
	w := &msWorld{sim: s, hub: s.NewNode("hub")}
	for i := 0; i < n; i++ {
		node := s.NewNode(fmt.Sprintf("site%d", i))
		l := simnet.Connect(node, w.hub, simnet.LinkConfig{Delay: 15 * time.Millisecond})
		addr := netaddr.AddrFrom4(10, 0, byte(i), 1)
		l.A().SetAddr(addr)
		l.B().SetAddr(netaddr.AddrFrom4(10, 0, byte(i), 2))
		node.SetDefaultRoute(l.A())
		w.hub.AddRoute(netaddr.PrefixFrom(netaddr.AddrFrom4(10, 0, byte(i), 0), 24), l.B())
		w.sites = append(w.sites, &Site{
			Prefix: netaddr.PrefixFrom(netaddr.AddrFrom4(100, byte(i+1), 0, 0), 16),
			Locators: []packet.LISPLocator{
				{Priority: 1, Weight: 100, Reachable: true, Addr: addr},
			},
			Node: node,
			Addr: addr,
			TTL:  300,
		})
	}
	return w
}

// addInfraNode attaches an infrastructure node (MS, MR, NERD authority)
// to the hub with the given delay and /24-allocated address.
func (w *msWorld) addInfraNode(name string, octet byte, delay time.Duration) (*simnet.Node, netaddr.Addr) {
	n := w.sim.NewNode(name)
	l := simnet.Connect(n, w.hub, simnet.LinkConfig{Delay: delay})
	addr := netaddr.AddrFrom4(198, 51, octet, 1)
	l.A().SetAddr(addr)
	l.B().SetAddr(netaddr.AddrFrom4(198, 51, octet, 2))
	n.SetDefaultRoute(l.A())
	w.hub.AddRoute(netaddr.PrefixFrom(netaddr.AddrFrom4(198, 51, octet, 0), 24), l.B())
	return n, addr
}

// resolveOnce runs one resolution and returns (entry, ok, elapsed). The
// run window is bounded because periodic control-plane chatter (MS/MR
// re-registration, NERD polling) keeps the event queue non-empty forever.
func resolveOnce(w *msWorld, r lisp.Resolver, eid netaddr.Addr) (*lisp.MapEntry, bool, simnet.Time) {
	var entry *lisp.MapEntry
	ok := false
	start := w.sim.Now()
	at := start
	r.Resolve(eid, func(e *lisp.MapEntry, success bool) {
		entry, ok, at = e, success, w.sim.Now()
	})
	w.sim.RunFor(20 * time.Second)
	return entry, ok, at - start
}

// aboutEq tolerates the distinct per-hop overlay delay offsets (a few
// hundred ns per hop) on top of the nominal path-delay sum.
func aboutEq(elapsed, want simnet.Time) bool {
	d := elapsed - want
	return d >= 0 && d < 100*time.Microsecond
}

func TestMSMRResolution(t *testing.T) {
	w := newMSWorld(t, 3)
	msNode, msAddr := w.addInfraNode("ms", 1, 12*time.Millisecond)
	mrNode, mrAddr := w.addInfraNode("mr", 2, 10*time.Millisecond)
	sys := NewMSMR(msNode, msAddr, mrNode, mrAddr, testKey)
	resolvers := make([]lisp.Resolver, len(w.sites))
	for i, site := range w.sites {
		resolvers[i] = sys.AttachSite(site)
	}
	w.sim.RunFor(time.Second) // registrations land
	if sys.MS.RegisteredSites() != 3 {
		t.Fatalf("registered = %d", sys.MS.RegisteredSites())
	}
	entry, ok, elapsed := resolveOnce(w, resolvers[0], netaddr.MustParseAddr("100.2.0.9"))
	if !ok || entry.EIDPrefix != w.sites[1].Prefix {
		t.Fatalf("resolution = %+v ok=%v", entry, ok)
	}
	if entry.Locators[0].Addr != w.sites[1].Addr {
		t.Fatalf("locator = %v", entry.Locators[0].Addr)
	}
	// Four legs: ITR->MR (15+10), MR->MS (10+12), MS->ETR (12+15),
	// ETR->ITR (15+15) = 104ms.
	want := 104 * time.Millisecond
	if elapsed != want {
		t.Fatalf("T_map = %v, want %v", elapsed, want)
	}
	// The record TTL must carry into the entry expiry.
	if entry.Expires == 0 {
		t.Fatal("entry must carry a TTL")
	}
}

func TestMSMRNegativeForUnknownEID(t *testing.T) {
	w := newMSWorld(t, 2)
	msNode, msAddr := w.addInfraNode("ms", 1, 10*time.Millisecond)
	mrNode, mrAddr := w.addInfraNode("mr", 2, 10*time.Millisecond)
	sys := NewMSMR(msNode, msAddr, mrNode, mrAddr, testKey)
	r0 := sys.AttachSite(w.sites[0])
	sys.AttachSite(w.sites[1])
	w.sim.RunFor(time.Second)
	_, ok, _ := resolveOnce(w, r0, netaddr.MustParseAddr("100.99.0.1"))
	if ok {
		t.Fatal("unknown EID must resolve negatively")
	}
	if sys.MS.Stats().Negatives != 1 {
		t.Fatalf("MS negatives = %d", sys.MS.Stats().Negatives)
	}
}

func TestMSMRBadAuthRejected(t *testing.T) {
	w := newMSWorld(t, 2)
	msNode, msAddr := w.addInfraNode("ms", 1, 10*time.Millisecond)
	mrNode, mrAddr := w.addInfraNode("mr", 2, 10*time.Millisecond)
	sys := NewMSMR(msNode, msAddr, mrNode, mrAddr, testKey)
	w.sites[0].AuthKey = []byte("wrong-key")
	r1 := sys.AttachSite(w.sites[1])
	sys.AttachSite(w.sites[0])
	w.sim.RunFor(time.Second)
	if sys.MS.Stats().BadAuth == 0 {
		t.Fatal("bad auth must be counted")
	}
	if sys.MS.RegisteredSites() != 1 {
		t.Fatalf("registered = %d, want only the valid site", sys.MS.RegisteredSites())
	}
	// Resolving the unregistered site fails.
	_, ok, _ := resolveOnce(w, r1, netaddr.MustParseAddr("100.1.0.1"))
	if ok {
		t.Fatal("unregistered site must not resolve")
	}
}

func TestMSMRPeriodicReregistration(t *testing.T) {
	w := newMSWorld(t, 1)
	msNode, msAddr := w.addInfraNode("ms", 1, 10*time.Millisecond)
	mrNode, mrAddr := w.addInfraNode("mr", 2, 10*time.Millisecond)
	sys := NewMSMR(msNode, msAddr, mrNode, mrAddr, testKey)
	sys.RegisterInterval = 30 * time.Second
	sys.AttachSite(w.sites[0])
	w.sim.RunUntil(100 * time.Second)
	// t=0, 30, 60, 90 => 4 registrations.
	if got := sys.MS.Stats().Registers; got != 4 {
		t.Fatalf("registers = %d, want 4", got)
	}
}

func TestRequesterRetryAndTimeout(t *testing.T) {
	w := newMSWorld(t, 2)
	msNode, msAddr := w.addInfraNode("ms", 1, 10*time.Millisecond)
	mrNode, mrAddr := w.addInfraNode("mr", 2, 10*time.Millisecond)
	sys := NewMSMR(msNode, msAddr, mrNode, mrAddr, testKey)
	r0 := sys.AttachSite(w.sites[0]).(*Requester)
	sys.AttachSite(w.sites[1])
	w.sim.RunFor(time.Second)
	// Cut the MR off: every attempt times out, then the requester gives up.
	for _, ifc := range mrNode.Ifaces() {
		cfg := ifc.Config()
		cfg.Loss = 1.0
		ifc.SetConfig(cfg)
	}
	_, ok, _ := resolveOnce(w, r0, netaddr.MustParseAddr("100.2.0.1"))
	if ok {
		t.Fatal("resolution through dead MR must fail")
	}
	if r0.Stats.Retries != uint64(r0.MaxRetries) || r0.Stats.Timeouts != 1 {
		t.Fatalf("retries=%d timeouts=%d", r0.Stats.Retries, r0.Stats.Timeouts)
	}
}

func TestALTResolution(t *testing.T) {
	w := newMSWorld(t, 4)
	alt := BuildALT(w.sim, OverlayConfig{
		Branching: 2, Depth: 2,
		LinkDelay: 20 * time.Millisecond, TunnelDelay: 10 * time.Millisecond,
	})
	if alt.Routers() != 7 {
		t.Fatalf("routers = %d, want 7 (1+2+4)", alt.Routers())
	}
	resolvers := make([]lisp.Resolver, len(w.sites))
	for i, site := range w.sites {
		resolvers[i] = alt.AttachSite(site)
	}
	w.sim.RunFor(time.Second) // announcements propagate
	if alt.RootTableSize() != 4 {
		t.Fatalf("root table = %d, want 4", alt.RootTableSize())
	}
	// Site 0 (leaf 0) resolves site 1 (leaf 1): common ancestor is the
	// depth-1 router. Path: tunnel(10) + leaf->parent(20) + parent->leaf(20)
	// + tunnel(10) = 60ms; native reply site1->site0 = 30ms. Total 90ms.
	entry, ok, elapsed := resolveOnce(w, resolvers[0], netaddr.MustParseAddr("100.2.0.7"))
	if !ok || entry.Locators[0].Addr != w.sites[1].Addr {
		t.Fatalf("ALT resolution = %+v ok=%v", entry, ok)
	}
	if want := 90 * time.Millisecond; !aboutEq(elapsed, want) {
		t.Fatalf("T_map = %v, want %v", elapsed, want)
	}
	// Site 0 resolves site 2 (leaf 2, other half of the tree): the
	// request must climb to the root. 10+20+20+20+20+10 = 100ms + 30ms.
	_, ok, elapsed = resolveOnce(w, resolvers[0], netaddr.MustParseAddr("100.3.0.7"))
	if !ok {
		t.Fatal("cross-subtree resolution failed")
	}
	if want := 130 * time.Millisecond; !aboutEq(elapsed, want) {
		t.Fatalf("cross-subtree T_map = %v, want %v", elapsed, want)
	}
}

func TestALTRootMiss(t *testing.T) {
	w := newMSWorld(t, 2)
	alt := BuildALT(w.sim, OverlayConfig{
		Branching: 2, Depth: 1, LinkDelay: 10 * time.Millisecond, NativeUplink: w.hub,
	})
	r0 := alt.AttachSite(w.sites[0])
	alt.AttachSite(w.sites[1])
	w.sim.Run()
	_, ok, _ := resolveOnce(w, r0, netaddr.MustParseAddr("100.77.0.1"))
	if ok {
		t.Fatal("unannounced EID must fail")
	}
	if alt.Stats.RootMisses != 1 {
		t.Fatalf("root misses = %d", alt.Stats.RootMisses)
	}
}

func TestCONSResolutionAndCaching(t *testing.T) {
	w := newMSWorld(t, 4)
	cons := BuildCONS(w.sim, OverlayConfig{
		Branching: 2, Depth: 2,
		LinkDelay: 20 * time.Millisecond, TunnelDelay: 10 * time.Millisecond,
	})
	resolvers := make([]lisp.Resolver, len(w.sites))
	for i, site := range w.sites {
		resolvers[i] = cons.AttachSite(site)
	}
	w.sim.Run()
	// Cold: site 0 -> site 1 (sibling CARs). Request: tunnel(10) +
	// CAR->CDR(20) + CDR->CAR1(20); CAR1 answers from its database; reply
	// retraces: 20+20+10. Total 100ms.
	entry, ok, elapsed := resolveOnce(w, resolvers[0], netaddr.MustParseAddr("100.2.0.1"))
	if !ok || entry.Locators[0].Addr != w.sites[1].Addr {
		t.Fatalf("CONS resolution = %+v ok=%v", entry, ok)
	}
	if want := 100 * time.Millisecond; !aboutEq(elapsed, want) {
		t.Fatalf("cold T_map = %v, want %v", elapsed, want)
	}
	if cons.Stats.AuthoritativeAnswers != 1 {
		t.Fatalf("authoritative answers = %d", cons.Stats.AuthoritativeAnswers)
	}
	// Site 2 (other subtree) now asks for the same prefix: the answer was
	// cached along the first reply's path at the depth-1 CDR... but that
	// CDR is in subtree 0. Site 2's request climbs to the root, which has
	// no cache, then descends to subtree 0's CDR where the cache hits.
	_, ok, _ = resolveOnce(w, resolvers[2], netaddr.MustParseAddr("100.2.0.2"))
	if !ok {
		t.Fatal("second resolution failed")
	}
	if cons.Stats.CacheAnswers == 0 {
		t.Fatal("expected an intermediate cache answer")
	}
	// Same query from site 0 again: its own CAR cached the reply, so the
	// resolution is a single tunnel round trip (20ms).
	_, ok, elapsed = resolveOnce(w, resolvers[0], netaddr.MustParseAddr("100.2.0.3"))
	if !ok {
		t.Fatal("third resolution failed")
	}
	if want := 20 * time.Millisecond; !aboutEq(elapsed, want) {
		t.Fatalf("cached T_map = %v, want %v", elapsed, want)
	}
}

func TestCONSCacheExpiry(t *testing.T) {
	w := newMSWorld(t, 2)
	cons := BuildCONS(w.sim, OverlayConfig{Branching: 2, Depth: 1, LinkDelay: 10 * time.Millisecond})
	cons.CacheTTL = 5 * time.Second
	r0 := cons.AttachSite(w.sites[0])
	cons.AttachSite(w.sites[1])
	w.sim.Run()
	resolveOnce(w, r0, netaddr.MustParseAddr("100.2.0.1"))
	auth := cons.Stats.AuthoritativeAnswers
	w.sim.RunFor(10 * time.Second) // past the cache TTL
	resolveOnce(w, r0, netaddr.MustParseAddr("100.2.0.1"))
	if cons.Stats.AuthoritativeAnswers != auth+1 {
		t.Fatalf("expired cache must fall back to authoritative: %+v", cons.Stats)
	}
}

func TestNERDPushAndStaleness(t *testing.T) {
	w := newMSWorld(t, 3)
	authNode, authAddr := w.addInfraNode("nerd", 1, 10*time.Millisecond)
	authority := NewNERD(authNode, authAddr, testKey)
	authority.PollInterval = 30 * time.Second
	sys := NewNERDSystem(authority, testKey)

	// Give site 0 a data-plane xTR fed by the poller.
	xtr := lisp.NewXTR(w.sites[0].Node.Sim(), w.sites[0].Node, lisp.XTRConfig{
		RLOC:      w.sites[0].Addr,
		LocalEIDs: w.sites[0].Prefix,
		EIDSpace:  netaddr.MustParsePrefix("100.0.0.0/8"),
	})
	sys.AttachSite(w.sites[0])
	sys.AttachSite(w.sites[1])
	sys.WireXTR(xtr)
	w.sim.RunFor(2 * time.Second)
	if authority.DatabaseSize() != 2 {
		t.Fatalf("database = %d", authority.DatabaseSize())
	}
	// First poll already delivered both records.
	if xtr.Cache.Len() != 2 {
		t.Fatalf("cache = %d after first poll", xtr.Cache.Len())
	}
	// A site registered later is invisible until the next poll: the
	// staleness window.
	sys.AttachSite(w.sites[2])
	w.sim.RunFor(5 * time.Second)
	if xtr.Cache.Len() != 2 {
		t.Fatalf("cache = %d, new site must be stale before the poll", xtr.Cache.Len())
	}
	w.sim.RunFor(30 * time.Second)
	if xtr.Cache.Len() != 3 {
		t.Fatalf("cache = %d after poll, want 3", xtr.Cache.Len())
	}
	// Deltas: the second poll must not resend old records.
	p := sys.pollers[w.sites[0].Node]
	if p.Stats.RecordsInstalled != 3 {
		t.Fatalf("records installed = %d, want 3 (deltas only)", p.Stats.RecordsInstalled)
	}
	if p.Version() != authority.Version() {
		t.Fatalf("poller version %d != authority %d", p.Version(), authority.Version())
	}
}

func TestNERDBadAuth(t *testing.T) {
	w := newMSWorld(t, 1)
	authNode, authAddr := w.addInfraNode("nerd", 1, 10*time.Millisecond)
	authority := NewNERD(authNode, authAddr, testKey)
	sys := NewNERDSystem(authority, []byte("attacker-key"))
	sys.AttachSite(w.sites[0])
	w.sim.RunFor(time.Second)
	if authority.DatabaseSize() != 0 || authority.Stats.BadAuth != 1 {
		t.Fatalf("db=%d badauth=%d", authority.DatabaseSize(), authority.Stats.BadAuth)
	}
}

func TestControlAgentECMUnwrap(t *testing.T) {
	w := newMSWorld(t, 2)
	agent0 := NewControlAgent(w.sites[0].Node, w.sites[0].Addr)
	agent1 := NewControlAgent(w.sites[1].Node, w.sites[1].Addr)
	var gotSrc netaddr.Addr
	var gotNonce uint64
	agent1.OnMapRequest = func(src netaddr.Addr, m *packet.LISPMapRequest) {
		gotSrc, gotNonce = src, m.Nonce
	}
	req := &packet.LISPMapRequest{
		Nonce:       777,
		ITRRLOCs:    []netaddr.Addr{w.sites[0].Addr},
		EIDPrefixes: []netaddr.Prefix{netaddr.MustParsePrefix("100.2.0.0/16")},
	}
	agent0.SendECM(w.sites[1].Addr, req)
	w.sim.Run()
	if gotNonce != 777 {
		t.Fatalf("nonce = %d", gotNonce)
	}
	// The handler sees the *inner* source: the original requester.
	if gotSrc != w.sites[0].Addr {
		t.Fatalf("inner source = %v", gotSrc)
	}
}

func TestControlAgentMalformed(t *testing.T) {
	w := newMSWorld(t, 2)
	agent1 := NewControlAgent(w.sites[1].Node, w.sites[1].Addr)
	w.sites[0].Node.SendUDP(w.sites[0].Addr, w.sites[1].Addr,
		packet.PortLISPControl, packet.PortLISPControl, packet.Payload([]byte{0xff, 0x00}))
	w.sim.Run()
	if agent1.Stats.Malformed != 1 {
		t.Fatalf("malformed = %d", agent1.Stats.Malformed)
	}
}

func TestSystemNames(t *testing.T) {
	w := newMSWorld(t, 1)
	msNode, msAddr := w.addInfraNode("ms", 1, time.Millisecond)
	mrNode, mrAddr := w.addInfraNode("mr", 2, time.Millisecond)
	if got := NewMSMR(msNode, msAddr, mrNode, mrAddr, testKey).Name(); got != "MS/MR" {
		t.Fatalf("MSMR name = %q", got)
	}
	w2 := newMSWorld(t, 1)
	if got := BuildALT(w2.sim, OverlayConfig{Branching: 2, Depth: 1, LinkDelay: time.Millisecond}).Name(); got != "ALT" {
		t.Fatalf("ALT name = %q", got)
	}
	w3 := newMSWorld(t, 1)
	if got := BuildCONS(w3.sim, OverlayConfig{Branching: 2, Depth: 1, LinkDelay: time.Millisecond}).Name(); got != "CONS" {
		t.Fatalf("CONS name = %q", got)
	}
	w4 := newMSWorld(t, 1)
	authNode, authAddr := w4.addInfraNode("nerd", 1, time.Millisecond)
	if got := NewNERDSystem(NewNERD(authNode, authAddr, testKey), testKey).Name(); got != "NERD" {
		t.Fatalf("NERD name = %q", got)
	}
}

func TestRecordToEntry(t *testing.T) {
	s := simnet.New(1)
	rec := packet.LISPMapRecord{
		TTL: 60, EIDPrefix: netaddr.MustParsePrefix("100.1.0.0/16"),
		Locators: []packet.LISPLocator{{Priority: 1, Weight: 1, Reachable: true, Addr: 5}},
	}
	e := RecordToEntry(s, rec)
	if e.Expires != 60*time.Second {
		t.Fatalf("expires = %v", e.Expires)
	}
	rec.TTL = 0
	if RecordToEntry(s, rec).Expires != 0 {
		t.Fatal("zero TTL must be immortal")
	}
}

func BenchmarkMSMRResolution(b *testing.B) {
	w := newMSWorld(b, 8)
	msNode, msAddr := w.addInfraNode("ms", 1, 10*time.Millisecond)
	mrNode, mrAddr := w.addInfraNode("mr", 2, 10*time.Millisecond)
	sys := NewMSMR(msNode, msAddr, mrNode, mrAddr, testKey)
	resolvers := make([]lisp.Resolver, len(w.sites))
	for i, site := range w.sites {
		resolvers[i] = sys.AttachSite(site)
	}
	w.sim.RunFor(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eid := netaddr.AddrFrom4(100, byte(1+(i+1)%8), 0, 9)
		ok := false
		resolvers[i%8].Resolve(eid, func(e *lisp.MapEntry, success bool) { ok = success })
		w.sim.RunFor(5 * time.Second)
		if !ok {
			b.Fatal("resolution failed")
		}
	}
}

// TestLocatorWatchFlipsAndRefreshes: a watched site's locator R bit
// follows its interface state, RefreshSite propagates the change to the
// system's stored copy, and a fresh resolution returns the pruned set.
func TestLocatorWatchFlipsAndRefreshes(t *testing.T) {
	w := newMSWorld(t, 2)
	msNode, msAddr := w.addInfraNode("ms", 1, 12*time.Millisecond)
	mrNode, mrAddr := w.addInfraNode("mr", 2, 10*time.Millisecond)
	sys := NewMSMR(msNode, msAddr, mrNode, mrAddr, testKey)
	resolvers := make([]lisp.Resolver, len(w.sites))
	for i, site := range w.sites {
		resolvers[i] = sys.AttachSite(site)
	}
	site1 := w.sites[1]
	ifc := site1.Node.IfaceByAddr(site1.Addr)
	refreshed := 0
	lw := WatchSiteLocators(w.sim, site1, []*simnet.Iface{ifc}, func() {
		refreshed++
		sys.RefreshSite(site1)
	})
	lw.Start()
	w.sim.RunFor(2 * time.Second)
	if refreshed != 0 || lw.Changes != 0 {
		t.Fatalf("healthy site refreshed %d times", refreshed)
	}

	ifc.SetUp(false)
	w.sim.RunFor(2 * time.Second)
	if lw.Changes != 1 || refreshed != 1 {
		t.Fatalf("changes=%d refreshed=%d after iface down, want 1/1", lw.Changes, refreshed)
	}
	if site1.Locators[0].Reachable {
		t.Fatal("site record still advertises the dead locator as reachable")
	}
	// A fresh resolution now returns the record with the R bit cleared,
	// so an ITR's SelectLocator refuses it.
	ifc.SetUp(true) // restore the path so the reply can travel
	w.sim.RunFor(2 * time.Second)
	if lw.Changes != 2 || !site1.Locators[0].Reachable {
		t.Fatalf("recovery not observed: changes=%d", lw.Changes)
	}
}

// TestNERDRefreshBumpsVersion: re-announcing a site advances the
// authority database version so pollers fetch the updated record.
func TestNERDRefreshBumpsVersion(t *testing.T) {
	w := newMSWorld(t, 2)
	authNode, authAddr := w.addInfraNode("authority", 3, 15*time.Millisecond)
	authority := NewNERD(authNode, authAddr, testKey)
	sys := NewNERDSystem(authority, testKey)
	for _, site := range w.sites {
		sys.AttachSite(site)
	}
	w.sim.RunFor(time.Second)
	v0 := authority.Version()
	if v0 == 0 {
		t.Fatal("no registrations landed")
	}
	// Refresh of a never-attached site is ignored.
	sys.RefreshSite(&Site{Prefix: w.sites[0].Prefix, Node: w.sim.NewNode("stranger")})
	w.sim.RunFor(time.Second)
	if authority.Version() != v0 {
		t.Fatal("unattached refresh reached the authority")
	}
	w.sites[0].Locators[0].Reachable = false
	sys.RefreshSite(w.sites[0])
	w.sim.RunFor(time.Second)
	if authority.Version() <= v0 {
		t.Fatalf("version %d did not advance past %d on refresh", authority.Version(), v0)
	}
}
