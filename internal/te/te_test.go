package te

import (
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/irc"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/simnet"
	"github.com/pcelisp/pcelisp/internal/workload"
)

// teWorld: one domain node with two rate-limited provider links.
type teWorld struct {
	sim       *simnet.Sim
	dom       *simnet.Node
	providers []*irc.Provider
	ifaces    []*simnet.Iface // domain-side provider interfaces, in providers order
}

func newTEWorld(t testing.TB) *teWorld {
	t.Helper()
	s := simnet.New(1)
	dom := s.NewNode("dom")
	w := &teWorld{sim: s, dom: dom}
	for i, name := range []string{"A", "B"} {
		prov := s.NewNode("prov" + name)
		l := simnet.Connect(dom, prov, simnet.LinkConfig{Delay: 10 * time.Millisecond, RateBps: 800_000})
		rloc := netaddr.AddrFrom4(10, byte(i), 0, 1)
		l.A().SetAddr(rloc)
		l.B().SetAddr(netaddr.AddrFrom4(10, byte(i), 0, 2))
		dom.AddRoute(netaddr.PrefixFrom(netaddr.AddrFrom4(10, byte(i), 0, 0), 24), l.A())
		prov.SetDefaultRoute(l.B())
		w.providers = append(w.providers, &irc.Provider{
			Name: name, RLOC: rloc, Load: l.A().OfferedBytes, CapacityBps: 800_000,
		})
		w.ifaces = append(w.ifaces, l.A())
	}
	return w
}

func TestTrackerUtilization(t *testing.T) {
	w := newTEWorld(t)
	tr := NewTracker(w.sim)
	for i, p := range w.providers {
		tr.Add(p.Name, w.ifaces[i], p.CapacityBps)
	}
	tr.Start()
	// 400kbps through provider A = 50% utilization.
	pump := workload.NewPump(w.dom, w.providers[0].RLOC, netaddr.AddrFrom4(10, 0, 0, 2), 9, 400_000, 1000)
	pump.Start()
	w.sim.RunUntil(10 * time.Second)
	utils := tr.LastEgress()
	if utils[0] < 0.4 || utils[0] > 0.6 {
		t.Fatalf("provider A util = %v, want ~0.5", utils[0])
	}
	if utils[1] > 0.05 {
		t.Fatalf("provider B util = %v, want ~0", utils[1])
	}
	if tr.MaxEgress() != utils[0] {
		t.Fatalf("MaxEgress = %v", tr.MaxEgress())
	}
	// Jain over (0.5, 0) is ~0.5; over equal loads it approaches 1.
	if j := tr.JainEgress(); j > 0.6 {
		t.Fatalf("Jain = %v for one-sided load", j)
	}
	if len(tr.Egress[0].Points) < 8 {
		t.Fatalf("series points = %d", len(tr.Egress[0].Points))
	}
	if tr.JainIngress() == 0 {
		t.Fatal("ingress Jain must be defined (vacuously fair)")
	}
	// Ingress on provider A reflects return traffic (none here beyond
	// zero), so LastIngress stays ~0.
	for _, u := range tr.LastIngress() {
		if u > 0.05 {
			t.Fatalf("ingress util = %v", u)
		}
	}
	// Double-start is a no-op.
	tr.Start()
}

// fakeRepusher counts Repush calls.
type fakeRepusher struct{ calls, moved int }

func (f *fakeRepusher) Repush() int { f.calls++; return f.moved }

// TestTrackerMeasuresGoodputNotOfferedLoad is the delivered-bytes
// regression: with Loss=1.0 every frame is offered to the wire but none
// arrives, and the tracker must report zero utilization (the old TxBytes
// sampling reported ~50% — offered load, not goodput).
func TestTrackerMeasuresGoodputNotOfferedLoad(t *testing.T) {
	w := newTEWorld(t)
	ifA := w.ifaces[0]
	cfg := ifA.Config()
	cfg.Loss = 1.0
	ifA.SetConfig(cfg)

	tr := NewTracker(w.sim)
	for i, p := range w.providers {
		tr.Add(p.Name, w.ifaces[i], p.CapacityBps)
	}
	tr.Start()
	pump := workload.NewPump(w.dom, w.providers[0].RLOC, netaddr.AddrFrom4(10, 0, 0, 2), 9, 400_000, 1000)
	pump.Start()
	w.sim.RunUntil(10 * time.Second)
	if util := tr.LastEgress()[0]; util != 0 {
		t.Fatalf("provider A util = %v on a fully lossy link, want 0 (offered load leaked in)", util)
	}
	if c := ifA.Counters(); c.TxBytes == 0 || c.DeliveredBytes != 0 {
		t.Fatalf("counters inconsistent with Loss=1.0: %+v", c)
	}
}

func TestRebalancerTriggersOnImbalance(t *testing.T) {
	w := newTEWorld(t)
	engine := irc.NewEngine(w.sim, w.providers, irc.LoadBalance{})
	engine.Start()
	pump := workload.NewPump(w.dom, w.providers[0].RLOC, netaddr.AddrFrom4(10, 0, 0, 2), 9, 600_000, 1000)
	pump.Start()
	w.sim.RunUntil(5 * time.Second)

	fr := &fakeRepusher{moved: 3}
	rb := NewRebalancer(engine, fr)
	rb.Threshold = 0.3
	if !rb.Check() {
		t.Fatal("75% vs 0% imbalance must trigger")
	}
	if fr.calls != 1 || rb.Stats.Rebalances != 1 || rb.Stats.FlowsMoved != 3 {
		t.Fatalf("stats = %+v calls=%d", rb.Stats, fr.calls)
	}
}

func TestRebalancerQuietWhenBalanced(t *testing.T) {
	w := newTEWorld(t)
	engine := irc.NewEngine(w.sim, w.providers, irc.LoadBalance{})
	fr := &fakeRepusher{moved: 1}
	rb := NewRebalancer(engine, fr)
	if rb.Check() {
		t.Fatal("balanced (idle) providers must not trigger")
	}
	if fr.calls != 0 {
		t.Fatal("no repush expected")
	}
}

func TestRebalancerPeriodic(t *testing.T) {
	w := newTEWorld(t)
	engine := irc.NewEngine(w.sim, w.providers, irc.LoadBalance{})
	fr := &fakeRepusher{}
	rb := NewRebalancer(engine, fr)
	rb.Interval = 2 * time.Second
	rb.Start(w.sim)
	w.sim.RunUntil(11 * time.Second)
	if rb.Stats.Checks != 5 {
		t.Fatalf("checks = %d, want 5", rb.Stats.Checks)
	}
}

func TestRebalancerIngressMode(t *testing.T) {
	w := newTEWorld(t)
	engine := irc.NewEngine(w.sim, w.providers, irc.LoadBalance{})
	engine.Start()
	// Inbound traffic: pump from the provider side toward the domain.
	prov := w.ifaces[0].Peer().Node()
	pump := workload.NewPump(prov, netaddr.AddrFrom4(10, 0, 0, 2), w.providers[0].RLOC, 9, 600_000, 1000)
	w.dom.ListenUDP(9, func(*simnet.Delivery, *packet.UDP) {})
	pump.Start()
	w.sim.RunUntil(5 * time.Second)

	fr := &fakeRepusher{moved: 1}
	rb := NewRebalancer(engine, fr)
	rb.Ingress = true
	rb.Threshold = 0.3
	if !rb.Check() {
		t.Fatal("ingress imbalance must trigger in ingress mode")
	}
}

// TestTrackerAddAfterStart is the live-registration regression: a link
// added while the sampling timer is already running used to have its
// entire cumulative byte counter charged to its first interval (the
// priming gate was tracker-global, not per-link), producing an absurd
// utilization spike. The late link must prime silently and then report
// sane values.
func TestTrackerAddAfterStart(t *testing.T) {
	w := newTEWorld(t)
	tr := NewTracker(w.sim)
	tr.Add(w.providers[0].Name, w.ifaces[0], w.providers[0].CapacityBps)
	tr.Start()
	// Load both providers from t=0 so provider B accumulates counters
	// before it is ever tracked.
	workload.NewPump(w.dom, w.providers[0].RLOC, netaddr.AddrFrom4(10, 0, 0, 2), 9, 400_000, 1000).Start()
	workload.NewPump(w.dom, w.providers[1].RLOC, netaddr.AddrFrom4(10, 1, 0, 2), 9, 400_000, 1000).Start()
	w.sim.RunUntil(10 * time.Second)

	tr.Add(w.providers[1].Name, w.ifaces[1], w.providers[1].CapacityBps)
	w.sim.RunUntil(15 * time.Second)

	bSeries := tr.Egress[1]
	if len(bSeries.Points) == 0 {
		t.Fatal("late link never sampled")
	}
	// Every emitted point must be a per-interval rate (~0.5), not the
	// 10 seconds of backlog (~5.0) the unprimed subtraction produced.
	for _, pt := range bSeries.Points {
		if pt.Value > 1.0 {
			t.Fatalf("late link booked %v utilization at %v — cumulative counter charged to one interval", pt.Value, pt.At)
		}
	}
	if u := tr.LastEgress()[1]; u < 0.4 || u > 0.6 {
		t.Fatalf("late link util = %v, want ~0.5", u)
	}
	// The early link's series is longer: it was sampled the whole time.
	if len(tr.Egress[0].Points) <= len(bSeries.Points) {
		t.Fatalf("series lengths %d vs %d", len(tr.Egress[0].Points), len(bSeries.Points))
	}
}
