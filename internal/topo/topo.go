// Package topo builds the simulated internets the experiments run on:
// multihomed LISP domains in the style of the paper's Fig. 1 (a domain
// with providers A/B on one side, X/Y on the other), a non-LISP transit
// core where only RLOC and infrastructure prefixes are routable, a global
// DNS hierarchy (root, TLD, per-domain authoritative servers) and a
// per-domain DNS chain where the PCE node sits in the data path of the
// domain's DNS servers — exactly the placement the paper requires.
//
// Address plan:
//
//	EID space        100.0.0.0/8; domain d owns 100.(d+1).0.0/16
//	host h of dom d  100.(d+1).(1+h).1
//	RLOCs            10.d.p.1 = xTR address on provider p of domain d
//	infra            172.16.d.0/24: .1 PCE, .2 resolver (DNSS), .3 authoritative (DNSD)
//	root DNS         198.41.0.4, TLD DNS 192.5.6.30 (their real 2008 addresses)
//
// EIDs are not routable in the core — only LISP tunnels deliver
// inter-domain data traffic, as in the paper.
package topo

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/pcelisp/pcelisp/internal/dnssim"
	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/obs"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

// EIDSpace is the global EID space.
var EIDSpace = netaddr.MustParsePrefix("100.0.0.0/8")

// Spec describes the internet to build.
type Spec struct {
	// Seed drives every random choice (core link delays).
	Seed int64
	// Shards partitions the world into this many lock-step simulation
	// shards (default 1): domain i lands on shard i mod Shards, while the
	// core, the DNS hierarchy and everything hanging off the core stay on
	// shard 0. Provider-core links then become the cut links whose delays
	// (>= CoreDelayMin) bound the epoch length. Output is byte-identical
	// for every shard count.
	Shards int
	// Domains describes each LISP domain.
	Domains []DomainSpec
	// CoreDelayMin/Max bound the provider-to-core one-way delays, drawn
	// uniformly per provider (defaults 10-40ms).
	CoreDelayMin, CoreDelayMax time.Duration
	// RootDelay and TLDDelay are the core-to-DNS-infrastructure delays
	// (defaults 15ms and 20ms).
	RootDelay, TLDDelay time.Duration
	// DNSRecordTTL is the TTL of host A records in seconds (default 300).
	DNSRecordTTL uint32
	// Obs, when non-nil, registers every xTR's counters on this registry
	// (series are labeled by node name, unique within one world; do not
	// share a registry across worlds).
	Obs *obs.Registry
	// Recorder, when non-nil, receives control-plane flight events from
	// every xTR in the world. Recording never draws from the simulation
	// RNG and schedules nothing, so traces stay byte-identical with it
	// on or off.
	Recorder *obs.FlightRecorder
}

// DomainSpec describes one LISP domain.
type DomainSpec struct {
	// Hosts is the number of end-hosts (default 2).
	Hosts int
	// Providers is the multihoming degree (default 2).
	Providers int
	// ProviderCapacityBps sets the xTR-provider link rate; 0 = unlimited.
	ProviderCapacityBps int64
	// EdgeDelay is the xTR-provider delay (default 5ms).
	EdgeDelay time.Duration
	// SplitXTRs gives each provider its own xTR node (the paper's
	// separate ITR/ETR boxes); the default is one multihomed xTR node.
	SplitXTRs bool
	// MissPolicy is the ITR cache-miss policy.
	MissPolicy lisp.MissPolicy
	// CacheCapacity bounds the map-caches (0 = unbounded).
	CacheCapacity int
	// CachePolicy names the map-cache eviction policy ("lru", "lfu",
	// "2q"; "" = LRU).
	CachePolicy string
	// OverclaimFloor rejects installed mappings whose prefix is shorter
	// than this many bits (0 = accept any; see lisp.XTRConfig).
	OverclaimFloor int
	// GleanRateLimit bounds data-plane gleaning per second (0 = unbounded;
	// see lisp.XTRConfig).
	GleanRateLimit int
}

// Provider is one upstream attachment of a domain.
type Provider struct {
	// Name is "P<d>.<p>".
	Name string
	// Node is the provider's router in the core.
	Node *simnet.Node
	// RLOC is the xTR's address on this provider's customer link.
	RLOC netaddr.Addr
	// XTR is the tunnel router attached to this provider.
	XTR *lisp.XTR
	// EgressIface is the xTR-side interface of the customer link (feed
	// for utilization monitoring).
	EgressIface *simnet.Iface
	// Link is the xTR-provider customer link and CoreLink the
	// provider-core transit link — the failure-injection cut points.
	Link, CoreLink *simnet.Link
	// CoreDelay is the drawn provider-core delay.
	CoreDelay time.Duration
	// CapacityBps echoes the spec.
	CapacityBps int64
}

// Host is one end-host of a domain.
type Host struct {
	// Node is the host's node.
	Node *simnet.Node
	// Addr is the host's EID.
	Addr netaddr.Addr
	// Name is the host's DNS name ("h0.d0.example").
	Name string
	// DNS is the host's stub resolver client.
	DNS *dnssim.Client
}

// Domain is one built LISP domain.
type Domain struct {
	// Index is the domain's position in the spec.
	Index int
	// Name is "d<index>".
	Name string
	// EIDPrefix is the domain's EID /16.
	EIDPrefix netaddr.Prefix
	// Zone is the domain's DNS zone ("d<index>.example").
	Zone string
	// Router is the interior router all hosts hang off.
	Router *simnet.Node
	// Hosts are the end-hosts.
	Hosts []*Host
	// XTRs are the tunnel routers (one multihomed node, or one per
	// provider under SplitXTRs).
	XTRs []*lisp.XTR
	// Providers are the upstream attachments.
	Providers []*Provider
	// PCENode is the node on the DNS path where the PCE runs. It is a
	// plain router until internal/core attaches PCE behaviour.
	PCENode *simnet.Node
	// PCEAddr is the PCE's address (172.16.d.1).
	PCEAddr netaddr.Addr
	// Resolver is the domain's caching resolver (DNSS) at 172.16.d.2.
	Resolver *dnssim.Resolver
	// ResolverNode hosts the resolver.
	ResolverNode *simnet.Node
	// Auth is the domain's authoritative server (DNSD) at 172.16.d.3.
	Auth *dnssim.Server
	// AuthNode hosts the authoritative server.
	AuthNode *simnet.Node
	// Group is the domain's ETR-synchronization multicast group.
	Group netaddr.Addr
}

// RLOCs returns the domain's locator addresses in provider order.
func (d *Domain) RLOCs() []netaddr.Addr {
	out := make([]netaddr.Addr, len(d.Providers))
	for i, p := range d.Providers {
		out[i] = p.RLOC
	}
	return out
}

// Internet is the fully built world.
type Internet struct {
	// Sharded is the lock-step coordinator for the whole world. All run
	// control (and barrier-callback scheduling) goes through it; with one
	// shard it degenerates to plain runs of Sim.
	Sharded *simnet.ShardedSim
	// Sim is shard 0: the core, the DNS hierarchy, and domain 0 live
	// here. With Spec.Shards <= 1 it is the whole world.
	Sim *simnet.Sim
	// Core is the transit hub.
	Core *simnet.Node
	// Root and TLD are the top of the DNS hierarchy.
	Root *dnssim.Server
	// TLD serves the "example" zone.
	TLD *dnssim.Server
	// Domains are the LISP domains in spec order.
	Domains []*Domain
}

// rootAddr and tldAddr are the 2008-era real addresses of a.root-servers
// and a.gtld-servers.
var (
	rootAddr = netaddr.MustParseAddr("198.41.0.4")
	tldAddr  = netaddr.MustParseAddr("192.5.6.30")
)

func (s *Spec) fill() {
	if s.CoreDelayMin == 0 {
		s.CoreDelayMin = 10 * time.Millisecond
	}
	if s.CoreDelayMax < s.CoreDelayMin {
		s.CoreDelayMax = 4 * s.CoreDelayMin
	}
	if s.RootDelay == 0 {
		s.RootDelay = 15 * time.Millisecond
	}
	if s.TLDDelay == 0 {
		s.TLDDelay = 20 * time.Millisecond
	}
	if s.DNSRecordTTL == 0 {
		s.DNSRecordTTL = 300
	}
	for i := range s.Domains {
		d := &s.Domains[i]
		if d.Hosts == 0 {
			d.Hosts = 2
		}
		if d.Providers == 0 {
			d.Providers = 2
		}
		if d.EdgeDelay == 0 {
			d.EdgeDelay = 5 * time.Millisecond
		}
	}
}

// Build constructs the internet.
func Build(spec Spec) *Internet {
	spec.fill()
	shards := spec.Shards
	if shards < 1 {
		shards = 1
	}
	sharded := simnet.NewSharded(spec.Seed, shards)
	sim := sharded.Shard(0)
	in := &Internet{Sharded: sharded, Sim: sim, Core: sim.NewNode("core")}

	// DNS hierarchy root and TLD hang directly off the core.
	rootNode := sim.NewNode("dns-root")
	lr := simnet.Connect(rootNode, in.Core, simnet.LinkConfig{Delay: spec.RootDelay})
	lr.A().SetAddr(rootAddr)
	rootNode.SetDefaultRoute(lr.A())
	in.Core.AddRoute(netaddr.HostPrefix(rootAddr), lr.B())
	in.Root = dnssim.NewServer(rootNode, rootAddr, ".")

	tldNode := sim.NewNode("dns-tld")
	lt := simnet.Connect(tldNode, in.Core, simnet.LinkConfig{Delay: spec.TLDDelay})
	lt.A().SetAddr(tldAddr)
	tldNode.SetDefaultRoute(lt.A())
	in.Core.AddRoute(netaddr.HostPrefix(tldAddr), lt.B())
	in.TLD = dnssim.NewServer(tldNode, tldAddr, "example")
	in.Root.Delegate("example", "ns.example", tldAddr, 86400)

	// Core delays come from a spec-level stream in deterministic
	// (domain, provider) order — never from a shard-local Sim rng, whose
	// consumption would depend on how domains were partitioned.
	rng := rand.New(rand.NewSource(spec.Seed))
	for i := range spec.Domains {
		in.buildDomain(&spec, i, rng)
	}
	return in
}

func (in *Internet) buildDomain(spec *Spec, idx int, rng *rand.Rand) {
	// Domain idx lives on shard idx mod N; domain 0 therefore shares
	// shard 0 with the core and DNS infrastructure, which keeps the
	// experiment drivers (all of which act from domain 0) on one shard.
	sim := in.Sharded.Shard(idx % in.Sharded.NumShards())
	ds := spec.Domains[idx]
	d := &Domain{
		Index:     idx,
		Name:      fmt.Sprintf("d%d", idx),
		EIDPrefix: netaddr.PrefixFrom(netaddr.AddrFrom4(100, byte(idx+1), 0, 0), 16),
		Zone:      fmt.Sprintf("d%d.example", idx),
		Group:     netaddr.AddrFrom4(239, 0, 0, byte(idx+1)),
	}
	infra := netaddr.PrefixFrom(netaddr.AddrFrom4(172, 16, byte(idx), 0), 24)
	d.PCEAddr = infra.NthHost(1)
	resolverAddr := infra.NthHost(2)
	authAddr := infra.NthHost(3)

	d.Router = sim.NewNode(d.Name + "-router")
	intra := simnet.LinkConfig{Delay: time.Millisecond}

	// DNS chain: router -- pce -- {resolver, auth}. The PCE node forwards
	// all DNS traffic of the domain, putting it "in the data path of the
	// DNS servers".
	d.PCENode = sim.NewNode(d.Name + "-pce")
	lp := simnet.Connect(d.Router, d.PCENode, intra)
	lp.B().SetAddr(d.PCEAddr)
	lp.A().SetAddr(infra.NthHost(254))
	d.Router.AddRoute(infra, lp.A())
	d.PCENode.SetDefaultRoute(lp.B())

	d.ResolverNode = sim.NewNode(d.Name + "-dnss")
	lres := simnet.Connect(d.PCENode, d.ResolverNode, intra)
	lres.B().SetAddr(resolverAddr)
	lres.A().SetAddr(infra.NthHost(5))
	d.PCENode.AddRoute(netaddr.HostPrefix(resolverAddr), lres.A())
	d.ResolverNode.SetDefaultRoute(lres.B())
	d.Resolver = dnssim.NewResolver(d.ResolverNode, resolverAddr, rootAddr)

	d.AuthNode = sim.NewNode(d.Name + "-dnsd")
	lauth := simnet.Connect(d.PCENode, d.AuthNode, intra)
	lauth.B().SetAddr(authAddr)
	lauth.A().SetAddr(infra.NthHost(6))
	d.PCENode.AddRoute(netaddr.HostPrefix(authAddr), lauth.A())
	d.AuthNode.SetDefaultRoute(lauth.B())
	d.Auth = dnssim.NewServer(d.AuthNode, authAddr, d.Zone)
	in.TLD.Delegate(d.Zone, "ns."+d.Zone, authAddr, 86400)

	// Hosts on per-host /24 stub links.
	for h := 0; h < ds.Hosts; h++ {
		sub := d.EIDPrefix.Subnet(24, 1+h)
		host := &Host{
			Addr: sub.NthHost(1),
			Name: fmt.Sprintf("h%d.%s", h, d.Zone),
			Node: sim.NewNode(fmt.Sprintf("%s-h%d", d.Name, h)),
		}
		l := simnet.Connect(host.Node, d.Router, intra)
		l.A().SetAddr(host.Addr)
		l.B().SetAddr(sub.NthHost(2))
		host.Node.SetDefaultRoute(l.A())
		d.Router.AddRoute(sub, l.B())
		host.DNS = dnssim.NewClient(host.Node, host.Addr, resolverAddr)
		d.Hosts = append(d.Hosts, host)
		d.Auth.AddA(host.Name, host.Addr, spec.DNSRecordTTL)
	}

	// xTR nodes: one multihomed node, or one per provider.
	numXTRNodes := 1
	if ds.SplitXTRs {
		numXTRNodes = ds.Providers
	}
	xtrNodes := make([]*simnet.Node, numXTRNodes)
	for x := range xtrNodes {
		xtrNodes[x] = sim.NewNode(fmt.Sprintf("%s-xtr%d", d.Name, x))
		// Intra-domain side: link to the router.
		sub := d.EIDPrefix.Subnet(24, 200+x)
		l := simnet.Connect(xtrNodes[x], d.Router, intra)
		l.A().SetAddr(sub.NthHost(1))
		l.B().SetAddr(sub.NthHost(2))
		xtrNodes[x].AddRoute(d.EIDPrefix, l.A())
		xtrNodes[x].AddRoute(infra, l.A())
		if x == 0 {
			d.Router.SetDefaultRoute(l.B())
		} else {
			// Return traffic decapsulated at secondary xTRs re-enters via
			// the router; the router reaches them by their stub subnet.
			d.Router.AddRoute(sub, l.B())
		}
	}

	// Providers: core -- provider -- xTR. The provider node belongs to
	// the domain's shard, so the provider-core transit link is the cut
	// link in a sharded world.
	for p := 0; p < ds.Providers; p++ {
		provNode := sim.NewNode(fmt.Sprintf("%s-prov%d", d.Name, p))
		coreDelay := spec.CoreDelayMin +
			time.Duration(rng.Int63n(int64(spec.CoreDelayMax-spec.CoreDelayMin)+1))
		lc := simnet.Connect(provNode, in.Core, simnet.LinkConfig{Delay: coreDelay})
		lc.A().SetAddr(netaddr.AddrFrom4(192, 168, byte(idx), byte(p*2+1)))
		provNode.SetDefaultRoute(lc.A())

		xtrNode := xtrNodes[0]
		if ds.SplitXTRs {
			xtrNode = xtrNodes[p]
		}
		custNet := netaddr.PrefixFrom(netaddr.AddrFrom4(10, byte(idx), byte(p), 0), 24)
		rloc := custNet.NthHost(1)
		le := simnet.Connect(xtrNode, provNode, simnet.LinkConfig{
			Delay: ds.EdgeDelay, RateBps: ds.ProviderCapacityBps,
			QueueBytes: queueFor(ds.ProviderCapacityBps),
		})
		le.A().SetAddr(rloc)
		le.B().SetAddr(custNet.NthHost(2))
		provNode.AddRoute(custNet, le.B())
		provNode.AddRoute(infra, le.B())
		in.Core.AddRoute(custNet, lc.B())
		if p == 0 {
			// Infrastructure (DNS/PCE) prefixes ride the first provider.
			in.Core.AddRoute(infra, lc.B())
			xtrNode.SetDefaultRoute(le.A())
		} else if ds.SplitXTRs {
			xtrNode.SetDefaultRoute(le.A())
		}

		d.Providers = append(d.Providers, &Provider{
			Name:        fmt.Sprintf("P%d.%d", idx, p),
			Node:        provNode,
			RLOC:        rloc,
			EgressIface: le.A(),
			Link:        le,
			CoreLink:    lc,
			CoreDelay:   coreDelay,
			CapacityBps: ds.ProviderCapacityBps,
		})
	}

	// Install the LISP data plane.
	for x, xtrNode := range xtrNodes {
		xtr := lisp.NewXTR(xtrNode.Sim(), xtrNode, lisp.XTRConfig{
			RLOC:           d.Providers[min(x, len(d.Providers)-1)].RLOC,
			LocalEIDs:      d.EIDPrefix,
			EIDSpace:       EIDSpace,
			CacheCapacity:  ds.CacheCapacity,
			CachePolicy:    ds.CachePolicy,
			MissPolicy:     ds.MissPolicy,
			OverclaimFloor: ds.OverclaimFloor,
			GleanRateLimit: ds.GleanRateLimit,
			Obs:            spec.Obs,
			Recorder:       spec.Recorder,
		})
		d.XTRs = append(d.XTRs, xtr)
	}
	for p := range d.Providers {
		if ds.SplitXTRs {
			d.Providers[p].XTR = d.XTRs[p]
		} else {
			d.Providers[p].XTR = d.XTRs[0]
		}
	}

	in.Domains = append(in.Domains, d)
}

// queueFor sizes drop-tail queues to ~50ms of line rate, a common rule of
// thumb; unlimited-rate links get unbounded queues.
func queueFor(rateBps int64) int {
	if rateBps == 0 {
		return 0
	}
	q := int(rateBps / 8 / 20)
	if q < 3000 {
		q = 3000
	}
	return q
}

// AttachCoreStub hangs an extra node directly off the core with its own
// routable /24 (198.51.octet.0/24), the node at .1. Mapping-system
// infrastructure and adversary nodes use it. The node lives on shard 0
// with the core, so attached behaviors stay deterministic at any shard
// count.
func (in *Internet) AttachCoreStub(name string, octet byte, delay time.Duration) (*simnet.Node, netaddr.Addr) {
	n := in.Sim.NewNode(name)
	l := simnet.Connect(n, in.Core, simnet.LinkConfig{Delay: delay})
	addr := netaddr.AddrFrom4(198, 51, octet, 1)
	l.A().SetAddr(addr)
	n.SetDefaultRoute(l.A())
	in.Core.AddRoute(netaddr.PrefixFrom(netaddr.AddrFrom4(198, 51, octet, 0), 24), l.B())
	return n, addr
}

// Domain returns the i-th domain.
func (in *Internet) Domain(i int) *Domain { return in.Domains[i] }

// HostName returns the DNS name of host h in domain d.
func (in *Internet) HostName(d, h int) string { return in.Domains[d].Hosts[h].Name }
