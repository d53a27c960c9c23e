package topo

import (
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

func twoDomainSpec() Spec {
	return Spec{
		Seed: 42,
		Domains: []DomainSpec{
			{Hosts: 2, Providers: 2},
			{Hosts: 2, Providers: 2},
		},
	}
}

func TestBuildShape(t *testing.T) {
	in := Build(twoDomainSpec())
	if len(in.Domains) != 2 {
		t.Fatalf("domains = %d", len(in.Domains))
	}
	d0 := in.Domain(0)
	if d0.EIDPrefix != netaddr.MustParsePrefix("100.1.0.0/16") {
		t.Fatalf("d0 prefix = %v", d0.EIDPrefix)
	}
	if len(d0.Hosts) != 2 || len(d0.Providers) != 2 {
		t.Fatalf("d0 hosts=%d providers=%d", len(d0.Hosts), len(d0.Providers))
	}
	if len(d0.XTRs) != 1 {
		t.Fatalf("default must build one multihomed xTR, got %d", len(d0.XTRs))
	}
	if d0.Providers[0].RLOC != netaddr.MustParseAddr("10.0.0.1") {
		t.Fatalf("d0 provider0 RLOC = %v", d0.Providers[0].RLOC)
	}
	if d0.PCEAddr != netaddr.MustParseAddr("172.16.0.1") {
		t.Fatalf("d0 PCE addr = %v", d0.PCEAddr)
	}
	if in.HostName(1, 0) != "h0.d1.example" {
		t.Fatalf("host name = %q", in.HostName(1, 0))
	}
	if got := d0.RLOCs(); len(got) != 2 || got[1] != netaddr.MustParseAddr("10.0.1.1") {
		t.Fatalf("RLOCs = %v", got)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(twoDomainSpec())
	b := Build(twoDomainSpec())
	for i := range a.Domains {
		for p := range a.Domains[i].Providers {
			da := a.Domains[i].Providers[p].CoreDelay
			db := b.Domains[i].Providers[p].CoreDelay
			if da != db {
				t.Fatalf("core delays differ across identical builds: %v vs %v", da, db)
			}
		}
	}
}

func TestDNSResolutionAcrossDomains(t *testing.T) {
	in := Build(twoDomainSpec())
	h := in.Domain(0).Hosts[0]
	var got netaddr.Addr
	var tdns simnet.Time
	ok := false
	h.DNS.Lookup(in.HostName(1, 0), func(a netaddr.Addr, d simnet.Time, success bool) {
		got, tdns, ok = a, d, success
	})
	in.Sim.RunFor(5 * time.Second)
	if !ok {
		t.Fatal("cross-domain DNS lookup failed")
	}
	if got != in.Domain(1).Hosts[0].Addr {
		t.Fatalf("resolved %v, want %v", got, in.Domain(1).Hosts[0].Addr)
	}
	// Iterative resolution: client->DNSS plus three upstream queries.
	if tdns < 50*time.Millisecond {
		t.Fatalf("TDNS = %v, implausibly fast for iterative resolution", tdns)
	}
	if in.Root.Stats.Referrals != 1 || in.TLD.Stats.Referrals != 1 {
		t.Fatalf("root/TLD referrals = %d/%d", in.Root.Stats.Referrals, in.TLD.Stats.Referrals)
	}
	if in.Domain(1).Auth.Stats.Answers != 1 {
		t.Fatalf("authoritative answers = %d", in.Domain(1).Auth.Stats.Answers)
	}
}

func TestEIDsNotRoutableNatively(t *testing.T) {
	in := Build(twoDomainSpec())
	src := in.Domain(0).Hosts[0]
	dst := in.Domain(1).Hosts[0]
	delivered := false
	dst.Node.ListenUDP(7777, func(*simnet.Delivery, *packet.UDP) { delivered = true })
	src.Node.SendUDP(src.Addr, dst.Addr, 1, 7777, packet.Payload("native?"))
	in.Sim.RunFor(2 * time.Second)
	if delivered {
		t.Fatal("EID-addressed packet must not cross the core natively")
	}
	// With MissDrop and no mapping, the xTR counted the drop.
	if in.Domain(0).XTRs[0].Stats().CacheMissDrops != 1 {
		t.Fatalf("drops = %d", in.Domain(0).XTRs[0].Stats().CacheMissDrops)
	}
}

func TestLISPDeliveryWithManualMapping(t *testing.T) {
	in := Build(twoDomainSpec())
	d0, d1 := in.Domain(0), in.Domain(1)
	// Install mappings both ways (what a control plane would do).
	d0.XTRs[0].Cache.Insert(d1.EIDPrefix, []packet.LISPLocator{
		{Priority: 1, Weight: 100, Reachable: true, Addr: d1.Providers[0].RLOC},
	}, 0)
	d1.XTRs[0].Cache.Insert(d0.EIDPrefix, []packet.LISPLocator{
		{Priority: 1, Weight: 100, Reachable: true, Addr: d0.Providers[0].RLOC},
	}, 0)
	src, dst := d0.Hosts[0], d1.Hosts[1]
	var got string
	dst.Node.ListenUDP(7777, func(d *simnet.Delivery, udp *packet.UDP) {
		got = string(udp.LayerPayload())
	})
	src.Node.SendUDP(src.Addr, dst.Addr, 1, 7777, packet.Payload("tunneled"))
	in.Sim.RunFor(2 * time.Second)
	if got != "tunneled" {
		t.Fatal("LISP delivery across the built internet failed")
	}
	if d0.XTRs[0].Stats().EncapPackets != 1 || d1.XTRs[0].Stats().DecapPackets != 1 {
		t.Fatalf("encap=%d decap=%d", d0.XTRs[0].Stats().EncapPackets, d1.XTRs[0].Stats().DecapPackets)
	}
}

func TestSplitXTRs(t *testing.T) {
	spec := twoDomainSpec()
	spec.Domains[1].SplitXTRs = true
	in := Build(spec)
	d1 := in.Domain(1)
	if len(d1.XTRs) != 2 {
		t.Fatalf("split xTRs = %d", len(d1.XTRs))
	}
	if d1.XTRs[0] == d1.XTRs[1] || d1.XTRs[0].Host() == d1.XTRs[1].Host() {
		t.Fatal("split xTRs must be distinct nodes")
	}
	if d1.Providers[1].XTR != d1.XTRs[1] {
		t.Fatal("provider 1 must map to xTR 1")
	}
	// Delivery to the secondary RLOC decapsulates at xTR 1 and still
	// reaches the host through the router.
	d0 := in.Domain(0)
	d0.XTRs[0].Cache.Insert(d1.EIDPrefix, []packet.LISPLocator{
		{Priority: 1, Weight: 100, Reachable: true, Addr: d1.Providers[1].RLOC},
	}, 0)
	dst := d1.Hosts[0]
	got := false
	dst.Node.ListenUDP(7, func(*simnet.Delivery, *packet.UDP) { got = true })
	d0.Hosts[0].Node.SendUDP(d0.Hosts[0].Addr, dst.Addr, 1, 7, packet.Payload("x"))
	in.Sim.RunFor(2 * time.Second)
	if !got {
		t.Fatal("delivery via secondary xTR failed")
	}
	if d1.XTRs[1].Stats().DecapPackets != 1 {
		t.Fatalf("secondary xTR decaps = %d", d1.XTRs[1].Stats().DecapPackets)
	}
}

func TestMultihomedEgressSteering(t *testing.T) {
	in := Build(twoDomainSpec())
	d0, d1 := in.Domain(0), in.Domain(1)
	// A flow entry whose source RLOC belongs to provider 1 must leave
	// through provider 1's link (source-based steering on the multihomed
	// xTR).
	d0.XTRs[0].InstallFlow(d0.Hosts[0].Addr, d1.Hosts[0].Addr,
		d0.Providers[1].RLOC, d1.Providers[0].RLOC, 0)
	before := d0.Providers[1].EgressIface.Counters().TxPackets
	d0.Hosts[0].Node.SendUDP(d0.Hosts[0].Addr, d1.Hosts[0].Addr, 1, 7, packet.Payload("steer"))
	in.Sim.RunFor(time.Second)
	after := d0.Providers[1].EgressIface.Counters().TxPackets
	if after != before+1 {
		t.Fatalf("provider 1 egress packets = %d -> %d, want +1", before, after)
	}
}

func TestInfraReachableFromAllDomains(t *testing.T) {
	in := Build(twoDomainSpec())
	// The resolver of d0 can reach the authoritative server of d1
	// natively (DNS infrastructure is RLOC-space).
	d0, d1 := in.Domain(0), in.Domain(1)
	reached := false
	d1.AuthNode.ListenUDP(9999, func(*simnet.Delivery, *packet.UDP) { reached = true })
	d0.ResolverNode.SendUDP(d0.Resolver.Addr(), netaddr.MustParseAddr("172.16.1.3"), 1, 9999)
	in.Sim.RunFor(2 * time.Second)
	if !reached {
		t.Fatal("cross-domain infra traffic failed")
	}
}

func TestSpecDefaults(t *testing.T) {
	in := Build(Spec{Seed: 1, Domains: []DomainSpec{{}}})
	d := in.Domain(0)
	if len(d.Hosts) != 2 || len(d.Providers) != 2 {
		t.Fatalf("defaults: hosts=%d providers=%d", len(d.Hosts), len(d.Providers))
	}
	for _, p := range d.Providers {
		if p.CoreDelay < 10*time.Millisecond || p.CoreDelay > 40*time.Millisecond {
			t.Fatalf("core delay %v outside default bounds", p.CoreDelay)
		}
	}
}

func TestQueueFor(t *testing.T) {
	if queueFor(0) != 0 {
		t.Fatal("unlimited rate must have unbounded queue")
	}
	if queueFor(8_000_000) != 50_000 {
		t.Fatalf("queueFor(8Mbps) = %d, want 50000", queueFor(8_000_000))
	}
	if queueFor(1000) != 3000 {
		t.Fatalf("queue floor = %d", queueFor(1000))
	}
}
