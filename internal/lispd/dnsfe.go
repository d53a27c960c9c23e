package lispd

import (
	"strings"
	"sync/atomic"

	"github.com/pcelisp/pcelisp/internal/core"
	"github.com/pcelisp/pcelisp/internal/dnssim"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/obs"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// dnsView is one compiled split-horizon view.
type dnsView struct {
	name      string
	cidrs     []netaddr.Prefix
	recursion bool
	hosts     map[string]netaddr.Addr // canonical name -> override answer
	// queries is the view's per-series query counter, resolved through
	// the registry's get-or-create path so a view surviving a config
	// reload keeps its running count.
	queries *obs.Counter
}

// dnsZone is the compiled, immutable DNS state a front end serves. Reload
// builds a fresh one and swaps the pointer; queries in flight keep the
// version they started with, and the pending table lives outside it, so a
// swap never drops an in-flight resolution.
type dnsZone struct {
	zone    string
	records map[string]netaddr.Addr
	ttls    map[string]uint32
	views   []dnsView
	forward []struct {
		zone   string
		server netaddr.Addr
	}
}

func compileZone(cfg *DNSConfig) *dnsZone {
	z := &dnsZone{
		records: make(map[string]netaddr.Addr),
		ttls:    make(map[string]uint32),
	}
	if cfg == nil {
		return z
	}
	z.zone = dnssim.CanonicalName(cfg.Zone)
	for _, r := range cfg.Records {
		name := dnssim.CanonicalName(r.Name)
		z.records[name] = netaddr.MustParseAddr(r.Addr)
		ttl := r.TTL
		if ttl == 0 {
			ttl = 300
		}
		z.ttls[name] = ttl
	}
	for _, v := range cfg.Views {
		cv := dnsView{name: v.Name, recursion: v.Recursion}
		for _, c := range v.CIDRs {
			cv.cidrs = append(cv.cidrs, netaddr.MustParsePrefix(c))
		}
		if len(v.Hosts) > 0 {
			cv.hosts = make(map[string]netaddr.Addr, len(v.Hosts))
			for name, addr := range v.Hosts {
				cv.hosts[dnssim.CanonicalName(name)] = netaddr.MustParseAddr(addr)
			}
		}
		z.views = append(z.views, cv)
	}
	for _, f := range cfg.Forward {
		z.forward = append(z.forward, struct {
			zone   string
			server netaddr.Addr
		}{dnssim.CanonicalName(f.Zone), netaddr.MustParseAddr(f.Server)})
	}
	return z
}

// viewFor picks the first view whose ACL matches the client source.
func (z *dnsZone) viewFor(src netaddr.Addr) *dnsView {
	for i := range z.views {
		for _, c := range z.views[i].cidrs {
			if c.Contains(src) {
				return &z.views[i]
			}
		}
	}
	return nil
}

// nameUnder reports whether name equals zone or is a subdomain of it.
func nameUnder(name, zone string) bool {
	if zone == "" {
		return true
	}
	return name == zone || strings.HasSuffix(name, "."+zone)
}

// feCounters is the front end's one counter list: the pcelisp_dnsfe_*
// series, live as obs.Counter cells and snapshotted as FrontEndStats.
type feCounters[T any] struct {
	Queries    T `metric:"queries_total" help:"DNS queries received by the front end."`
	Answered   T `metric:"answered_total" help:"Queries answered authoritatively (zone records or view overrides)."`
	Forwarded  T `metric:"forwarded_total" help:"Queries forwarded toward a remote authoritative server."`
	Returned   T `metric:"returned_total" help:"Forwarded answers relayed back to clients."`
	Refused    T `metric:"refused_total" help:"Queries refused (no matching view, or recursion denied)."`
	NXDomain   T `metric:"nxdomain_total" help:"NXDOMAIN answers sent."`
	Orphaned   T `metric:"orphaned_total" help:"Replies matching no pending query."`
	ViewHits   T `metric:"view_hits_total" help:"Answers served from a view's host overrides."`
	DroppedFwd T `metric:"dropped_fwd_total" help:"Forwarded queries whose target had no route."`
	Reloads    T `metric:"reloads_total" help:"DNS zone reloads applied."`
}

// FrontEndStats is a snapshot of front-end activity.
type FrontEndStats = feCounters[uint64]

// pendingQuery is one client resolution in flight through a forwarder.
type pendingQuery struct {
	client netaddr.Addr
	port   uint16
	qname  string
}

// dnsFrontEnd is the daemon's DNS server: authoritative for the local
// zone, split-horizon by source view, and a forwarder toward remote
// authoritative servers for everything else. It is the daemon analogue of
// the sim's DNSS+DNSD pair, and it feeds the PCE the same two IPC signals
// the sim resolver does (NoteClientQuery on forwarded queries, the
// answers coming back through the PCES sniffer).
type dnsFrontEnd struct {
	host runtime.Host
	addr netaddr.Addr
	zone atomic.Pointer[dnsZone]
	pce  *core.PCE // nil when the daemon has no PCE role
	pend map[uint16]pendingQuery
	met  feCounters[obs.Counter]
	reg  *obs.Registry // per-view counters resolve through get-or-create
}

func newDNSFrontEnd(host runtime.Host, addr netaddr.Addr, cfg *DNSConfig, pce *core.PCE, reg *obs.Registry) *dnsFrontEnd {
	fe := &dnsFrontEnd{
		host: host,
		addr: addr,
		pce:  pce,
		pend: make(map[uint16]pendingQuery),
		reg:  reg,
	}
	reg.RegisterSet("pcelisp_dnsfe_", &fe.met, obs.Label{Key: "node", Value: host.HostName()})
	fe.zone.Store(fe.compile(cfg))
	host.BindUDP(addr, packet.PortDNS, fe.handle)
	return fe
}

// compile builds the zone and resolves each view's query counter. A view
// with the same name after a reload maps to the same registry series, so
// its count survives the swap.
func (fe *dnsFrontEnd) compile(cfg *DNSConfig) *dnsZone {
	z := compileZone(cfg)
	for i := range z.views {
		z.views[i].queries = fe.reg.Counter("pcelisp_dnsfe_view_queries_total",
			"DNS queries handled per split-horizon view.",
			obs.Label{Key: "node", Value: fe.host.HostName()},
			obs.Label{Key: "view", Value: z.views[i].name})
	}
	return z
}

// Stats returns a snapshot of the front end's counters.
func (fe *dnsFrontEnd) Stats() FrontEndStats { return obs.Snapshot[FrontEndStats](&fe.met) }

// swap atomically installs a new compiled zone. In-flight resolutions
// (fe.pend) are untouched: replies arriving after the swap still reach
// their clients.
func (fe *dnsFrontEnd) swap(cfg *DNSConfig) {
	fe.zone.Store(fe.compile(cfg))
	fe.met.Reloads.Inc()
}

func (fe *dnsFrontEnd) handle(src, dst netaddr.Addr, udp *packet.UDP) {
	msg := &packet.DNS{}
	if err := msg.DecodeFromBytes(udp.LayerPayload()); err != nil || len(msg.Questions) == 0 {
		return
	}
	if msg.QR {
		fe.handleReply(msg)
		return
	}
	fe.handleQuery(src, udp.SrcPort, msg)
}

func (fe *dnsFrontEnd) handleQuery(src netaddr.Addr, sport uint16, q *packet.DNS) {
	fe.met.Queries.Inc()
	z := fe.zone.Load()
	name := dnssim.CanonicalName(q.Questions[0].Name)

	view := z.viewFor(src)
	if view == nil {
		fe.met.Refused.Inc()
		fe.reply(src, sport, refused(q))
		return
	}
	view.queries.Inc()

	// Split horizon: the view's host overrides come first, then the
	// shared authoritative records.
	if q.Questions[0].Type == packet.DNSTypeA {
		if addr, ok := view.hosts[name]; ok {
			fe.met.ViewHits.Inc()
			fe.met.Answered.Inc()
			fe.reply(src, sport, answerA(q, name, addr, 300))
			return
		}
		if addr, ok := z.records[name]; ok {
			fe.met.Answered.Inc()
			fe.reply(src, sport, answerA(q, name, addr, z.ttls[name]))
			return
		}
	}

	if nameUnder(name, z.zone) && z.zone != "" {
		// Authoritatively nonexistent.
		fe.met.NXDomain.Inc()
		fe.reply(src, sport, nxdomain(q, true))
		return
	}

	// Off-zone: forward if the view permits recursion and a forwarder
	// covers the name.
	if !view.recursion {
		fe.met.Refused.Inc()
		fe.reply(src, sport, refused(q))
		return
	}
	for _, f := range z.forward {
		if !nameUnder(name, f.zone) {
			continue
		}
		// Step 1: tell the PCE a local client is resolving a remote name
		// before the query leaves (the resolver IPC of the paper).
		if fe.pce != nil {
			fe.pce.NoteClientQuery(src, name)
		}
		fe.pend[q.ID] = pendingQuery{client: src, port: sport, qname: name}
		fe.met.Forwarded.Inc()
		if !fe.host.RouteUp(f.server) {
			fe.met.DroppedFwd.Inc()
		}
		fe.host.OutputUDP(fe.addr, f.server, packet.PortDNS, packet.PortDNS, q)
		return
	}
	fe.met.NXDomain.Inc()
	fe.reply(src, sport, nxdomain(q, false))
}

// handleReply relays a forwarded answer back to its waiting client. The
// reply normally arrives re-originated by the local PCES (step 7a, after
// the mapping rode in on port P); with no PCE in the path it arrives
// straight from the remote server. Either way it matches by DNS ID.
func (fe *dnsFrontEnd) handleReply(msg *packet.DNS) {
	p, ok := fe.pend[msg.ID]
	if !ok {
		fe.met.Orphaned.Inc()
		return
	}
	delete(fe.pend, msg.ID)
	fe.met.Returned.Inc()
	if fe.pce != nil {
		if addr, ok := msg.FirstA(); ok {
			fe.pce.NoteAnswer(p.client, p.qname, addr, false)
		}
	}
	fe.host.OutputUDP(fe.addr, p.client, packet.PortDNS, p.port, msg)
}

func (fe *dnsFrontEnd) reply(dst netaddr.Addr, dport uint16, msg *packet.DNS) {
	fe.host.OutputUDP(fe.addr, dst, packet.PortDNS, dport, msg)
}

func answerA(q *packet.DNS, name string, addr netaddr.Addr, ttl uint32) *packet.DNS {
	return &packet.DNS{
		ID: q.ID, QR: true, AA: true, OpCode: q.OpCode, RD: q.RD,
		Questions: q.Questions,
		Answers: []packet.DNSResourceRecord{{
			Name: name, Type: packet.DNSTypeA, Class: packet.DNSClassIN, TTL: ttl, IP: addr,
		}},
	}
}

func nxdomain(q *packet.DNS, authoritative bool) *packet.DNS {
	return &packet.DNS{
		ID: q.ID, QR: true, AA: authoritative, OpCode: q.OpCode, RD: q.RD,
		Questions: q.Questions, RCode: packet.DNSRCodeNXDomain,
	}
}

func refused(q *packet.DNS) *packet.DNS {
	return &packet.DNS{
		ID: q.ID, QR: true, OpCode: q.OpCode, RD: q.RD,
		Questions: q.Questions, RCode: packet.DNSRCodeServFail,
	}
}
