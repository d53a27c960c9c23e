package irc

import (
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Ready() || e.Value() != 0 {
		t.Fatal("fresh EWMA must be unready and zero")
	}
	e.Update(10)
	if !e.Ready() || e.Value() != 10 {
		t.Fatalf("first sample = %v", e.Value())
	}
	e.Update(20)
	if e.Value() != 15 {
		t.Fatalf("after 20: %v", e.Value())
	}
	e.Update(15)
	if e.Value() != 15 {
		t.Fatalf("after 15: %v", e.Value())
	}
}

func TestEWMABadAlphaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("alpha 0 must panic")
		}
	}()
	NewEWMA(0)
}

// twoProviderWorld builds a domain node with two provider links of given
// rates, returning the engine providers wired to real interfaces.
func twoProviderWorld(t testing.TB, rateA, rateB int64) (*simnet.Sim, *simnet.Node, []*Provider) {
	t.Helper()
	s := simnet.New(1)
	dom := s.NewNode("domain")
	provA := s.NewNode("provA")
	provB := s.NewNode("provB")
	la := simnet.Connect(dom, provA, simnet.LinkConfig{Delay: 10 * time.Millisecond, RateBps: rateA})
	lb := simnet.Connect(dom, provB, simnet.LinkConfig{Delay: 30 * time.Millisecond, RateBps: rateB})
	la.A().SetAddr(netaddr.MustParseAddr("10.0.0.1"))
	la.B().SetAddr(netaddr.MustParseAddr("10.0.0.2"))
	lb.A().SetAddr(netaddr.MustParseAddr("11.0.0.1"))
	lb.B().SetAddr(netaddr.MustParseAddr("11.0.0.2"))
	dom.AddRoute(netaddr.MustParsePrefix("10.0.0.0/8"), la.A())
	dom.AddRoute(netaddr.MustParsePrefix("11.0.0.0/8"), lb.A())
	providers := []*Provider{
		{Name: "A", RLOC: netaddr.MustParseAddr("10.0.0.1"), Load: la.A().OfferedBytes,
			CapacityBps: rateA, CostPerMbps: 1, BaseLatency: 10 * time.Millisecond},
		{Name: "B", RLOC: netaddr.MustParseAddr("11.0.0.1"), Load: lb.A().OfferedBytes,
			CapacityBps: rateB, CostPerMbps: 3, BaseLatency: 30 * time.Millisecond},
	}
	return s, dom, providers
}

func TestEngineMinLatency(t *testing.T) {
	s, _, providers := twoProviderWorld(t, 1e6, 1e6)
	e := NewEngine(s, providers, MinLatency{})
	locs := e.MappingLocators()
	if len(locs) != 2 {
		t.Fatalf("locators = %d", len(locs))
	}
	if locs[0].Addr != providers[0].RLOC || locs[0].Priority != 1 {
		t.Fatalf("primary = %+v", locs[0])
	}
	if locs[1].Priority != 2 {
		t.Fatalf("backup = %+v", locs[1])
	}
	// New latency reports flip the preference.
	e.ReportLatency(0, 100*time.Millisecond)
	e.ReportLatency(0, 100*time.Millisecond)
	e.ReportLatency(0, 100*time.Millisecond)
	e.SetPolicy(MinLatency{}) // force recompute
	if got := e.MappingLocators()[0].Addr; got != providers[1].RLOC {
		t.Fatalf("after degradation primary = %v", got)
	}
}

func TestEngineFailover(t *testing.T) {
	s, _, providers := twoProviderWorld(t, 1e6, 1e6)
	e := NewEngine(s, providers, MinLatency{})
	e.SetProviderUp(0, false)
	locs := e.MappingLocators()
	if len(locs) != 1 || locs[0].Addr != providers[1].RLOC {
		t.Fatalf("failover locators = %+v", locs)
	}
	if e.Stats.Failovers != 1 {
		t.Fatalf("failovers = %d", e.Stats.Failovers)
	}
	// Idempotent down, then recovery.
	e.SetProviderUp(0, false)
	if e.Stats.Failovers != 1 {
		t.Fatal("repeated down must not double count")
	}
	e.SetProviderUp(0, true)
	if len(e.MappingLocators()) != 2 {
		t.Fatal("recovery must restore both providers")
	}
	// All providers down: no locators.
	e.SetProviderUp(0, false)
	e.SetProviderUp(1, false)
	if e.MappingLocators() != nil {
		t.Fatal("all-down must yield no locators")
	}
	if _, ok := e.IngressRLOC(1); ok {
		t.Fatal("all-down must yield no ingress RLOC")
	}
}

func TestEngineUtilizationSampling(t *testing.T) {
	s, dom, providers := twoProviderWorld(t, 800_000, 800_000)
	e := NewEngine(s, providers, LoadBalance{})
	e.Start()
	// Drive ~50% load through provider A: 800kbps link, send 50kB/s.
	payload := make([]byte, 1000)
	var pump func()
	pump = func() {
		for i := 0; i < 50; i++ {
			dom.SendUDP(providers[0].RLOC, netaddr.MustParseAddr("10.0.0.2"), 1, 2, packet.Payload(payload))
		}
		s.ScheduleFunc(time.Second, pump)
	}
	s.ScheduleFunc(0, pump)
	s.RunUntil(10 * time.Second)
	st := e.Snapshot()
	if st[0].EgressUtil < 0.4 || st[0].EgressUtil > 0.65 {
		t.Fatalf("provider A egress util = %v, want ~0.5", st[0].EgressUtil)
	}
	if st[1].EgressUtil > 0.05 {
		t.Fatalf("provider B egress util = %v, want ~0", st[1].EgressUtil)
	}
	// LoadBalance must now weight B over A.
	locs := e.MappingLocators()
	var wA, wB uint8
	for _, l := range locs {
		switch l.Addr {
		case providers[0].RLOC:
			wA = l.Weight
		case providers[1].RLOC:
			wB = l.Weight
		}
	}
	if wB <= wA {
		t.Fatalf("load balance weights: A=%d B=%d, want B heavier", wA, wB)
	}
}

func TestIngressRLOCWeightedSpread(t *testing.T) {
	s, _, providers := twoProviderWorld(t, 1e6, 1e6)
	e := NewEngine(s, providers, EqualSplit{})
	counts := map[netaddr.Addr]int{}
	for h := uint64(0); h < 1000; h++ {
		rloc, ok := e.IngressRLOC(h * 2654435761)
		if !ok {
			t.Fatal("no ingress RLOC")
		}
		counts[rloc]++
	}
	if counts[providers[0].RLOC] < 350 || counts[providers[0].RLOC] > 650 {
		t.Fatalf("ingress spread = %v", counts)
	}
}

func TestCostAwareSpill(t *testing.T) {
	cheap := ProviderState{Index: 0, Name: "cheap", CostPerMbps: 1, Up: true}
	pricey := ProviderState{Index: 1, Name: "pricey", CostPerMbps: 5, Up: true}
	p := CostAware{SpillAt: 0.8}

	// Below the spill point the cheap provider carries priority 1.
	out := p.Rank([]ProviderState{pricey, cheap})
	if out[0].Index != 0 || out[0].Priority != 1 || out[0].Weight != 100 {
		t.Fatalf("unsaturated rank = %+v", out)
	}
	// Saturated cheap provider spills: pricey gets the real weight at the
	// next tier.
	cheap.EgressUtil = 0.9
	out = p.Rank([]ProviderState{pricey, cheap})
	if out[0].Index != 0 || out[0].Weight != 5 {
		t.Fatalf("saturated cheap = %+v", out[0])
	}
	if out[1].Index != 1 || out[1].Priority != 2 || out[1].Weight != 100 {
		t.Fatalf("spill target = %+v", out[1])
	}
}

func TestPinnedPolicy(t *testing.T) {
	s, _, providers := twoProviderWorld(t, 1e6, 1e6)
	e := NewEngine(s, providers, Pinned{Index: 1})
	locs := e.MappingLocators()
	if len(locs) != 1 || locs[0].Addr != providers[1].RLOC {
		t.Fatalf("pinned locators = %+v", locs)
	}
	// Pinned provider down: Rank returns nil, engine falls back to equal
	// split over the survivors.
	e.SetProviderUp(1, false)
	locs = e.MappingLocators()
	if len(locs) != 1 || locs[0].Addr != providers[0].RLOC {
		t.Fatalf("pinned fallback = %+v", locs)
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]Policy{
		"min-latency":  MinLatency{},
		"load-balance": LoadBalance{},
		"cost-aware":   CostAware{},
		"equal-split":  EqualSplit{},
		"pinned":       Pinned{},
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("%T.Name() = %q", p, p.Name())
		}
	}
}

func TestOnRecomputeHook(t *testing.T) {
	s, _, providers := twoProviderWorld(t, 1e6, 1e6)
	e := NewEngine(s, providers, EqualSplit{})
	fired := 0
	e.OnRecompute = func() { fired++ }
	e.SetPolicy(MinLatency{})
	if fired != 1 {
		t.Fatalf("OnRecompute fired %d times", fired)
	}
}

func TestEngineRequiresProviders(t *testing.T) {
	s := simnet.New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("empty provider list must panic")
		}
	}()
	NewEngine(s, nil, EqualSplit{})
}
