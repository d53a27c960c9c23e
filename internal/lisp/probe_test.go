package lisp

import (
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

// probeWorld is a minimal two-site world for probing tests: xa reaches
// xb through a core router over two parallel provider paths, so one can
// be cut while the other keeps carrying probes and data.
type probeWorld struct {
	sim     *simnet.Sim
	xa, xb  *XTR
	linkA   *simnet.Link // xa's single uplink
	linkB1  *simnet.Link // xb's first provider path (RLOC 10.1.0.1)
	linkB2  *simnet.Link // xb's second provider path (RLOC 10.1.1.1)
	rlocB1  netaddr.Addr
	rlocB2  netaddr.Addr
	entryB  *MapEntry
	prefixB netaddr.Prefix
}

func newProbeWorld(t *testing.T) *probeWorld {
	t.Helper()
	s := simnet.New(1)
	na := s.NewNode("xa")
	nb := s.NewNode("xb")
	core := s.NewNode("core")
	cfg := simnet.LinkConfig{Delay: 5 * time.Millisecond}

	w := &probeWorld{
		sim:     s,
		rlocB1:  netaddr.MustParseAddr("10.1.0.1"),
		rlocB2:  netaddr.MustParseAddr("10.1.1.1"),
		prefixB: netaddr.MustParsePrefix("100.2.0.0/16"),
	}
	w.linkA = simnet.Connect(na, core, cfg)
	w.linkA.A().SetAddr(netaddr.MustParseAddr("10.0.0.1"))
	na.SetDefaultRoute(w.linkA.A())
	core.AddRoute(netaddr.MustParsePrefix("10.0.0.0/24"), w.linkA.B())

	w.linkB1 = simnet.Connect(nb, core, cfg)
	w.linkB1.A().SetAddr(w.rlocB1)
	nb.SetDefaultRoute(w.linkB1.A())
	core.AddRoute(netaddr.MustParsePrefix("10.1.0.0/24"), w.linkB1.B())

	w.linkB2 = simnet.Connect(nb, core, cfg)
	w.linkB2.A().SetAddr(w.rlocB2)
	core.AddRoute(netaddr.MustParsePrefix("10.1.1.0/24"), w.linkB2.B())

	eidSpace := netaddr.MustParsePrefix("100.0.0.0/8")
	w.xa = NewXTR(w.sim, na, XTRConfig{
		RLOC: w.linkA.A().Addr(), LocalEIDs: netaddr.MustParsePrefix("100.1.0.0/16"),
		EIDSpace: eidSpace,
	})
	w.xb = NewXTR(w.sim, nb, XTRConfig{
		RLOC: w.rlocB1, LocalEIDs: w.prefixB, EIDSpace: eidSpace,
	})
	w.entryB = w.xa.Cache.Insert(w.prefixB, []packet.LISPLocator{
		{Priority: 1, Weight: 50, Reachable: true, Addr: w.rlocB1},
		{Priority: 1, Weight: 50, Reachable: true, Addr: w.rlocB2},
	}, 0)
	return w
}

// TestProbeKeepsLiveLocatorsUp: steady state probes every cached
// locator and takes nothing down.
func TestProbeKeepsLiveLocatorsUp(t *testing.T) {
	w := newProbeWorld(t)
	w.xa.EnableProbing(ProbeConfig{})
	w.xb.EnableProbing(ProbeConfig{})
	w.sim.RunFor(5 * time.Second)
	if w.xa.Stats().ProbesSent == 0 || w.xa.Stats().ProbeAcks == 0 {
		t.Fatalf("no probe traffic: %+v", w.xa.Stats())
	}
	if w.xb.Stats().ProbeRepliesSent == 0 {
		t.Fatal("probed xTR never echoed")
	}
	if w.xa.Stats().LocatorDowns != 0 {
		t.Fatalf("healthy locator went down: %+v", w.xa.Stats())
	}
	if !w.xa.LocatorUp(w.rlocB1) || !w.xa.LocatorUp(w.rlocB2) {
		t.Fatal("locator marked down in steady state")
	}
}

// TestProbeDetectsCutAndRecovery: cutting one provider path flips that
// locator's Reachable bit after FailAfter consecutive misses, the data
// plane stops selecting it, and restoration brings it back after
// RecoverAfter echoes.
func TestProbeDetectsCutAndRecovery(t *testing.T) {
	w := newProbeWorld(t)
	var transitions []bool
	w.xa.OnReachability = func(rloc netaddr.Addr, up bool) {
		if rloc == w.rlocB2 {
			transitions = append(transitions, up)
		}
	}
	w.xa.EnableProbing(ProbeConfig{Interval: time.Second, FailAfter: 2, RecoverAfter: 2})
	w.xb.EnableProbing(ProbeConfig{})
	w.sim.RunFor(3 * time.Second)

	w.linkB2.SetDown()
	w.sim.RunFor(4 * time.Second) // two timeouts plus slack
	if w.xa.LocatorUp(w.rlocB2) {
		t.Fatal("cut locator still believed up")
	}
	if len(transitions) != 1 || transitions[0] {
		t.Fatalf("transitions = %v, want [false]", transitions)
	}
	// The data plane follows: every flow hash now lands on the survivor.
	for h := uint64(0); h < 16; h++ {
		loc, ok := w.entryB.SelectLocator(h)
		if !ok || loc.Addr != w.rlocB1 {
			t.Fatalf("hash %d selected %v, want survivor %v", h, loc.Addr, w.rlocB1)
		}
	}
	if w.xa.LocatorUp(w.rlocB1) == false {
		t.Fatal("survivor went down too")
	}

	w.linkB2.SetUp()
	w.sim.RunFor(4 * time.Second) // two echoes plus slack
	if !w.xa.LocatorUp(w.rlocB2) {
		t.Fatal("restored locator still down")
	}
	if len(transitions) != 2 || !transitions[1] {
		t.Fatalf("transitions = %v, want [false true]", transitions)
	}
	seen := map[netaddr.Addr]bool{}
	for h := uint64(0); h < 64; h++ {
		if loc, ok := w.entryB.SelectLocator(h); ok {
			seen[loc.Addr] = true
		}
	}
	if !seen[w.rlocB2] {
		t.Fatal("restored locator never selected again")
	}
}

// TestProbeHysteresisToleratesOneLoss: a single unanswered probe must
// not take a locator down when FailAfter is 2.
func TestProbeHysteresisToleratesOneLoss(t *testing.T) {
	w := newProbeWorld(t)
	w.xa.EnableProbing(ProbeConfig{Interval: time.Second, FailAfter: 2, RecoverAfter: 2})
	w.xb.EnableProbing(ProbeConfig{})
	// Cut the second path across exactly one probe round: the probe sent
	// at t=4s dies, the one at t=5s is answered again.
	plan := simnet.NewFailurePlan(w.sim)
	plan.LinkDown(3500*time.Millisecond, w.linkB2).
		LinkUp(4500*time.Millisecond, w.linkB2)
	plan.Schedule()
	w.sim.RunFor(8 * time.Second)
	if w.xa.Stats().ProbeTimeouts == 0 {
		t.Fatal("the cut round was not observed")
	}
	if w.xa.Stats().LocatorDowns != 0 || !w.xa.LocatorUp(w.rlocB2) {
		t.Fatalf("one miss flipped the locator: %+v", w.xa.Stats())
	}
}

// TestProbeEgressWatchAndSkip: downing the prober's own uplink raises an
// egress-state report and suppresses remote probes (whose verdicts would
// be meaningless) instead of counting misses.
func TestProbeEgressWatchAndSkip(t *testing.T) {
	w := newProbeWorld(t)
	var egress []bool
	w.xa.OnEgressState = func(rloc netaddr.Addr, up bool) { egress = append(egress, up) }
	w.xa.WatchEgress(w.xa.RLOC())
	w.xa.WatchEgress(w.xa.RLOC()) // duplicate registration is a no-op
	w.xa.EnableProbing(ProbeConfig{Interval: time.Second, FailAfter: 2, RecoverAfter: 2})
	w.xb.EnableProbing(ProbeConfig{})
	w.sim.RunFor(3 * time.Second)

	w.linkA.A().SetUp(false)
	w.sim.RunFor(5 * time.Second)
	if len(egress) != 1 || egress[0] {
		t.Fatalf("egress transitions = %v, want [false]", egress)
	}
	if w.xa.Stats().ProbesSkipped == 0 {
		t.Fatal("probes kept flowing into a dead egress")
	}
	// No false remote-down verdicts while the local egress is dead.
	if w.xa.Stats().LocatorDowns != 0 {
		t.Fatalf("dead egress produced remote downs: %+v", w.xa.Stats())
	}

	w.linkA.A().SetUp(true)
	w.sim.RunFor(3 * time.Second)
	if len(egress) != 2 || !egress[1] {
		t.Fatalf("egress transitions = %v, want [false true]", egress)
	}
}

// TestSelectLocatorZeroAlloc is the satellite's benchmark guard: the
// memoized selection must not allocate on the encap hot path, including
// right after a reachability flip.
func TestSelectLocatorZeroAlloc(t *testing.T) {
	e := &MapEntry{Locators: []packet.LISPLocator{
		{Priority: 1, Weight: 40, Reachable: true, Addr: netaddr.MustParseAddr("10.0.0.1")},
		{Priority: 1, Weight: 60, Reachable: true, Addr: netaddr.MustParseAddr("10.0.1.1")},
		{Priority: 2, Weight: 100, Reachable: true, Addr: netaddr.MustParseAddr("10.0.2.1")},
	}}
	h := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := e.SelectLocator(h); !ok {
			t.Fatal("no locator")
		}
		h++
	}); n != 0 {
		t.Fatalf("SelectLocator allocates %.1f/op", n)
	}
	e.SetLocatorReachable(netaddr.MustParseAddr("10.0.0.1"), false)
	survivor := netaddr.MustParseAddr("10.0.1.1")
	if n := testing.AllocsPerRun(1000, func() {
		if loc, ok := e.SelectLocator(h); !ok || loc.Addr != survivor {
			t.Fatal("wrong locator after flip")
		}
		h++
	}); n != 0 {
		t.Fatalf("SelectLocator allocates %.1f/op after flip", n)
	}
}

// TestSetLocatorReachableCopiesSharedSlice: entries built from a shared
// locator slice must not leak reachability flips into their siblings.
func TestSetLocatorReachableCopiesSharedSlice(t *testing.T) {
	shared := []packet.LISPLocator{
		{Priority: 1, Weight: 50, Reachable: true, Addr: netaddr.MustParseAddr("10.0.0.1")},
		{Priority: 1, Weight: 50, Reachable: true, Addr: netaddr.MustParseAddr("10.0.1.1")},
	}
	a := &MapEntry{Locators: shared}
	b := &MapEntry{Locators: shared}
	if !a.SetLocatorReachable(netaddr.MustParseAddr("10.0.0.1"), false) {
		t.Fatal("flip reported no change")
	}
	if a.SetLocatorReachable(netaddr.MustParseAddr("10.0.0.1"), false) {
		t.Fatal("idempotent flip reported a change")
	}
	if !shared[0].Reachable || !b.Locators[0].Reachable {
		t.Fatal("flip leaked into the shared slice")
	}
	if _, ok := b.SelectLocator(0); !ok {
		t.Fatal("sibling entry lost its locators")
	}
}

// TestMapCacheSetLocatorReachable flips across every covering entry.
func TestMapCacheSetLocatorReachable(t *testing.T) {
	s := simnet.New(1)
	c := NewMapCache(s, 0)
	addr := netaddr.MustParseAddr("10.9.0.1")
	locs := []packet.LISPLocator{{Priority: 1, Weight: 100, Reachable: true, Addr: addr}}
	c.Insert(netaddr.MustParsePrefix("100.1.0.0/16"), locs, 0)
	c.Insert(netaddr.MustParsePrefix("100.2.0.0/16"), locs, 0)
	if n := c.SetLocatorReachable(addr, false); n != 2 {
		t.Fatalf("changed %d entries, want 2", n)
	}
	e, ok := c.Lookup(netaddr.MustParseAddr("100.1.0.5"))
	if !ok {
		t.Fatal("entry vanished")
	}
	if _, usable := e.SelectLocator(1); usable {
		t.Fatal("downed locator still selectable")
	}
	if n := c.SetLocatorReachable(addr, true); n != 2 {
		t.Fatalf("restore changed %d entries, want 2", n)
	}
}

// BenchmarkSelectLocator tracks the per-packet selection cost.
func BenchmarkSelectLocator(b *testing.B) {
	e := &MapEntry{Locators: []packet.LISPLocator{
		{Priority: 1, Weight: 40, Reachable: true, Addr: netaddr.MustParseAddr("10.0.0.1")},
		{Priority: 1, Weight: 60, Reachable: true, Addr: netaddr.MustParseAddr("10.0.1.1")},
		{Priority: 2, Weight: 100, Reachable: true, Addr: netaddr.MustParseAddr("10.0.2.1")},
		{Priority: 255, Weight: 0, Reachable: true, Addr: netaddr.MustParseAddr("10.0.3.1")},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := e.SelectLocator(uint64(i)); !ok {
			b.Fatal("no locator")
		}
	}
}
