// Package core implements the paper's contribution: a PCE-based control
// plane for LISP. One PCE runs per domain, colocated with the domain's DNS
// servers and sitting in their data path. It plays both of the paper's
// roles at once:
//
//   - PCES (source role, steps 1 and 7): learns (ES, qname) from the local
//     resolver by IPC when a host starts a lookup, precomputes the ingress
//     RLOC for the flow's reverse direction with the IRC engine, intercepts
//     the port-P encapsulated DNS reply coming back from the remote PCED,
//     forwards the inner DNS answer to DNSS (7a), and pushes the mapping
//     tuple (ES, ED, RLOCS, RLOCD) to all local ITRs (7b) — before DNSS has
//     even answered the host, so the first data packet finds the mapping
//     installed.
//
//   - PCED (destination role, step 6): watches authoritative DNS replies
//     leaving the domain; when one carries an A record inside the local EID
//     prefix, it replaces the reply with a UDP message to the querying DNSS
//     on the special port P whose payload carries both the EID-to-RLOC
//     mapping (precomputed by the background IRC engine) and the original
//     DNS reply.
//
// The package also implements the paper's closing mechanism: on the first
// data packet of a flow, the receiving ETR learns the reverse mapping
// (ES -> RLOCS, from the outer header) and distributes it to its sibling
// ETRs and the PCE database via multicast, completing two-way resolution
// without a second lookup.
//
// Beyond the paper's text, two robustness paths are implemented and
// measured by experiment E8: a MapFetch exchange for flows whose DNS
// answer came from the resolver cache (so no reply ever crossed PCED), and
// transparent fallback to a classic mapping system when no PCE answers.
package core

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"github.com/pcelisp/pcelisp/internal/dnssim"
	"github.com/pcelisp/pcelisp/internal/irc"
	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/obs"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// Config configures a domain's PCE.
type Config struct {
	// Addr is the PCE's own address.
	Addr netaddr.Addr
	// EIDPrefix is the domain's EID prefix.
	EIDPrefix netaddr.Prefix
	// DNSAddr is the colocated resolver's (DNSS) address; port-P traffic
	// toward it is intercepted.
	DNSAddr netaddr.Addr
	// Engine is the domain's IRC engine.
	Engine *irc.Engine
	// Group is the domain's ETR-synchronization multicast group.
	Group netaddr.Addr
	// MappingTTL is the lifetime, in seconds, of pushed mappings
	// (default 300).
	MappingTTL uint32
	// PendingTTL bounds how long a step-1 flow waits for its mapping
	// before being abandoned to the fallback path (default 10s).
	PendingTTL runtime.Time
	// AuthKey, when non-nil, signs every PCECP message this PCE (and its
	// wired xTRs) originates and rejects every inbound PCECP message that
	// does not verify against it. It models the per-plane key
	// distribution the paper assumes between cooperating PCEs: unlike the
	// open pull planes, the push channel is provisioned, so mutual
	// authentication has a natural rollout path.
	AuthKey []byte
	// FetchServiceRate bounds how many MapFetch queries per second the
	// PCED side can answer (0 = unbounded). With it set, fetches queue
	// behind a deterministic service budget — the PCE as a single point
	// of attack under flooding, modeled honestly.
	FetchServiceRate int
	// FetchQueueCap bounds the fetch service backlog in requests
	// (default 64 when FetchServiceRate is set). Arrivals beyond it drop.
	FetchQueueCap int
	// FetchQuotaLimit, when >0, caps MapFetch queries per source address
	// per second before they reach the service queue.
	FetchQuotaLimit int
	// Obs, when set, registers the PCE's metric set (and its remote
	// mapping database's cache metrics) with the registry.
	Obs *obs.Registry
	// Recorder, when set, receives control-plane decision events (weight
	// pushes, fetch activity, defense rejections).
	Recorder *obs.FlightRecorder
}

// pceCounters is the PCE's one counter list: each field is a series of
// the pcelisp_pce_* family (name and help in its tag), instantiated
// with obs.Counter as the live set the handlers increment and with
// uint64 as the Stats snapshot.
type pceCounters[T any] struct {
	IPCQueries           T `metric:"ipc_queries_total" help:"Step-1 notifications from the colocated resolver."`
	EncapRepliesSent     T `metric:"encap_replies_sent_total" help:"Step-6 encapsulated DNS replies (PCED)."`
	EncapRepliesReceived T `metric:"encap_replies_received_total" help:"Step-7 interceptions (PCES)."`
	// PassthroughReplies: no mapping was available to PCED.
	PassthroughReplies T `metric:"passthrough_replies_total" help:"Authoritative replies passed through unmapped."`
	MappingPushes      T `metric:"mapping_pushes_total" help:"Step-7b mapping pushes to the ITRs."`
	FlowsPushed        T `metric:"flows_pushed_total" help:"Flow tuples across all mapping pushes."`
	// ReversePushes are database updates observed at the PCE.
	ReversePushes T `metric:"reverse_pushes_total" help:"ETR reverse-mapping multicasts consumed."`
	// MapFetches and MapFetchReplies count the cache-hit fallback; a
	// retry follows a query shed by a flooded PCED service queue.
	MapFetches      T `metric:"map_fetches_total" help:"Cache-hit fallback MapFetch queries sent."`
	MapFetchReplies T `metric:"map_fetch_replies_total" help:"MapFetch replies received."`
	MapFetchRetries T `metric:"map_fetch_retries_total" help:"MapFetch queries re-sent after going unanswered."`
	PendingExpired  T `metric:"pending_expired_total" help:"Step-1 flows abandoned without a mapping."`
	// CacheHitPushes are DNS cache hits needing no remote exchange at all.
	CacheHitPushes T `metric:"cache_hit_pushes_total" help:"Flows served from the local remote-mapping database."`
	// TxControlMessages and TxControlBytes feed experiment E5.
	TxControlMessages T `metric:"tx_control_messages_total" help:"PCECP messages originated."`
	TxControlBytes    T `metric:"tx_control_bytes_total" help:"PCECP bytes originated."`
	// The failure-injection subsystem; a repush counts only if it
	// actually moved flows.
	ReachabilityReports T `metric:"reachability_reports_total" help:"Probe/egress state reports consumed from wired xTRs."`
	FailoverRepushes    T `metric:"failover_repushes_total" help:"Repush rounds triggered by reachability reports."`
	// The inbound TE optimizer's input and output.
	LoadReports           T `metric:"load_reports_total" help:"xTR link-load telemetry messages consumed."`
	WeightUpdatesSent     T `metric:"weight_updates_sent_total" help:"MappingUpdate announcements to subscriber PCEs."`
	WeightUpdatesReceived T `metric:"weight_updates_received_total" help:"MappingUpdate messages consumed from remote PCEs."`
	WeightRepushes        T `metric:"weight_repushes_total" help:"Repush rounds triggered by received MappingUpdates."`
	// AuthRejects is only counted when Config.AuthKey is set.
	AuthRejects     T `metric:"auth_rejects_total" help:"Inbound PCECP messages dropped for bad signatures."`
	FetchQueueDrops T `metric:"fetch_queue_drops_total" help:"MapFetch queries shed by the bounded service queue."`
	FetchQuotaDrops T `metric:"fetch_quota_drops_total" help:"MapFetch queries shed by the per-source quota."`
}

// Stats counts PCE activity for the experiments.
type Stats = pceCounters[uint64]

// pceMetrics is the PCE's live metric set, embedded by value so
// control-plane handlers pay a plain atomic add.
type pceMetrics struct {
	pceCounters[obs.Counter]
	// FetchQueueDepth is the operator's view of the PCED under fetch
	// pressure, in queued requests.
	FetchQueueDepth obs.Gauge `metric:"fetch_queue_depth" help:"Bounded MapFetch service backlog at last arrival."`
}

// EventKind classifies PCE events for the OnEvent hook.
type EventKind int

// Event kinds.
const (
	// EvEncapReplySent is PCED replacing a DNS reply (step 6).
	EvEncapReplySent EventKind = iota
	// EvEncapReplyReceived is PCES intercepting port P (step 7).
	EvEncapReplyReceived
	// EvMappingPushed is the step-7b push to the ITRs.
	EvMappingPushed
	// EvFlowInstalled is an ITR installing a pushed flow tuple.
	EvFlowInstalled
	// EvReversePushed is an ETR multicasting a reverse mapping.
	EvReversePushed
	// EvReverseInstalled is a sibling installing the reverse mapping.
	EvReverseInstalled
	// EvMapFetchSent is the cache-hit fallback query.
	EvMapFetchSent
	// EvPassthrough is PCED letting a reply through unmapped.
	EvPassthrough
)

// Event is one PCE control-plane milestone.
type Event struct {
	Kind EventKind
	At   runtime.Time
	Node string
	// SrcEID/DstEID identify the flow when applicable.
	SrcEID, DstEID netaddr.Addr
}

// pendingFlow is a step-1 record awaiting its mapping.
type pendingFlow struct {
	client  netaddr.Addr
	ingress netaddr.Addr
	born    runtime.Time
}

// PCE is one domain's Path Computation Element.
type PCE struct {
	// rt and host are the runtime seam — the PCE state machine reads the
	// clock, arms timers and emits frames only through them, so the same
	// code runs under the sim and the real-time daemon.
	rt   runtime.Runtime
	host runtime.Host
	cfg  Config
	xtrs []*lisp.XTR

	pending map[string][]pendingFlow // qname -> waiting flows
	// remote caches learned remote prefix mappings (the PCES database).
	remote *lisp.MapCache
	// peers maps remote EID prefixes to their PCED address.
	peers *netaddr.Trie[netaddr.Addr]
	// fetches tracks outstanding MapFetch nonces.
	fetches map[uint64]fetchCtx
	// pushed tracks live pushed flows for TE re-pushes.
	pushed map[lisp.FlowKey]pushedFlow
	// lastOuter tracks the last outer source seen per flow at local ETRs,
	// so an upstream TE shift (new RLOCS) re-triggers the reverse push.
	lastOuter map[lisp.FlowKey]outerSeen
	// subscribers tracks, per remote DNSS address (as a host prefix), when
	// this PCED last handed out its own mapping toward it — the audience
	// for unsolicited MappingUpdate announcements when the TE optimizer
	// changes locator weights. Entries idle longer than the mapping TTL
	// are pruned by the maintenance sweep (the remote copy has expired
	// anyway). A trie rather than a map: its walk yields addresses in
	// ascending order, so announcement fan-out needs no sort to be
	// deterministic.
	subscribers *netaddr.Trie[runtime.Time]
	// fetchBusyUntil is when the bounded MapFetch service queue drains
	// (the MapResolver service model, applied to the PCED side).
	fetchBusyUntil runtime.Time
	// fetchQuota rate-limits MapFetch queries per source.
	fetchQuota *lisp.SourceQuota
	// maintArmed marks an outstanding maintenance sweep. The sweep prunes
	// pushed/lastOuter/subscriber/ETR first-packet state older than
	// MappingTTL and re-arms only while state remains, so long-running
	// simulations hold steady memory without keeping the event queue
	// alive forever.
	maintArmed bool

	// OnEvent, when set, receives control-plane milestones (experiment
	// instrumentation).
	OnEvent func(Event)
	// OnLoadReport, when set, receives xTR link-load telemetry — the
	// inbound TE optimizer consumes it.
	OnLoadReport func(src netaddr.Addr, loads []packet.PCELoadRecord)

	// rec is the control-plane flight recorder (nil-safe).
	met pceMetrics
	rec *obs.FlightRecorder
}

// Stats snapshots the PCE's activity counters.
func (p *PCE) Stats() Stats { return obs.Snapshot[Stats](&p.met.pceCounters) }

type pushedFlow struct {
	src     netaddr.Addr // SrcRLOC in use (the ingress choice)
	dst     netaddr.Addr // DstRLOC in use
	expires runtime.Time
}

// outerSeen is one lastOuter record: the outer source RLOC last observed
// for a flow and when, so stale records can be aged out.
type outerSeen struct {
	src  netaddr.Addr
	seen runtime.Time
}

// fetchCtx remembers what a MapFetch was for.
type fetchCtx struct {
	qname string
	ed    netaddr.Addr
	pced  netaddr.Addr
	tries int
}

// The MapFetch retry clock: a fetch shed by a flooded (or lossy) PCED
// service queue is re-sent a few times before the pending flows are left
// to age out — without it one dropped query strands every flow behind
// its qname for the full PendingTTL.
const (
	fetchRetryInterval = 2500 * time.Millisecond
	fetchMaxTries      = 4 // one initial send plus three retries
)

// NewWithRuntime builds a PCE against the runtime contract — the one
// constructor both engines use (a *simnet.Node under the simulator, the
// overlay host under cmd/lispd). The host must carry the domain's DNS
// traffic through its sniffer chain (the "PCE in the data path of the DNS
// servers" placement).
func NewWithRuntime(rt runtime.Runtime, host runtime.Host, cfg Config) *PCE {
	if cfg.MappingTTL == 0 {
		cfg.MappingTTL = 300
	}
	if cfg.PendingTTL == 0 {
		cfg.PendingTTL = 10 * time.Second
	}
	if cfg.FetchServiceRate > 0 && cfg.FetchQueueCap == 0 {
		cfg.FetchQueueCap = 64
	}
	p := &PCE{
		rt:          rt,
		host:        host,
		cfg:         cfg,
		pending:     make(map[string][]pendingFlow),
		remote:      lisp.NewMapCache(rt, 0),
		peers:       netaddr.NewTrie[netaddr.Addr](),
		fetches:     make(map[uint64]fetchCtx),
		pushed:      make(map[lisp.FlowKey]pushedFlow),
		lastOuter:   make(map[lisp.FlowKey]outerSeen),
		subscribers: netaddr.NewTrie[runtime.Time](),
	}
	if cfg.FetchQuotaLimit > 0 {
		p.fetchQuota = &lisp.SourceQuota{Limit: cfg.FetchQuotaLimit}
	}
	p.rec = cfg.Recorder
	cfg.Obs.RegisterSet("pcelisp_pce_", &p.met, obs.Label{Key: "node", Value: host.HostName()})
	p.remote.RegisterMetrics(cfg.Obs, host.HostName(), obs.Label{Key: "cache", Value: "pce-remote"})
	host.AddFrameSniffer(p.SniffFrame)
	host.BindUDP(cfg.Addr, packet.PortPCECP, p.HandleControl)
	if cfg.Group.IsValid() {
		host.JoinGroup(cfg.Group)
	}
	return p
}

// Addr returns the PCE's address.
func (p *PCE) Addr() netaddr.Addr { return p.cfg.Addr }

// RemoteMappings returns the PCES database of learned remote mappings.
func (p *PCE) RemoteMappings() *lisp.MapCache { return p.remote }

// AttachResolver wires the paper's step-1 IPC: the resolver notifies the
// PCE of every client query (and of every answer, for the cache-hit
// fallback).
func (p *PCE) AttachResolver(r *dnssim.Resolver) {
	r.OnClientQuery = p.NoteClientQuery
	r.OnAnswer = p.NoteAnswer
}

// NoteClientQuery is the step-1 IPC entry point: the local resolver (sim
// dnssim.Resolver or the daemon's DNS front end) reports that client
// started resolving qname, and the PCE precomputes the flow's ingress
// RLOC while the lookup is in flight.
func (p *PCE) NoteClientQuery(client netaddr.Addr, qname string) {
	p.met.IPCQueries.Inc()
	if !p.cfg.EIDPrefix.Contains(client) {
		return // not an end-host flow (infrastructure lookup)
	}
	h := flowStringHash(client, qname)
	ingress, _ := p.cfg.Engine.IngressRLOC(h)
	p.pending[qname] = append(p.pending[qname], pendingFlow{
		client: client, ingress: ingress, born: p.rt.Now(),
	})
	p.rt.ScheduleTimer(p.cfg.PendingTTL, p,
		runtime.TimerArg{Kind: pceTimerPendingExpire, S: qname})
}

// NoteAnswer is the answer half of the resolver IPC: cache hits bypass
// PCED entirely, so the PCE serves the mapping from its own database or
// fetches it from the known peer (experiment E8's fallback paths).
func (p *PCE) NoteAnswer(client netaddr.Addr, qname string, addr netaddr.Addr, fromCache bool) {
	if !fromCache || !p.cfg.EIDPrefix.Contains(client) {
		return
	}
	if p.cfg.EIDPrefix.Contains(addr) || !addr.IsValid() {
		p.dropPending(qname, client)
		return
	}
	// The answer came from the DNSS cache, so no reply crossed PCED.
	// Serve from our own database, or fetch from the known peer.
	if _, ok := p.remote.Lookup(addr); ok {
		p.met.CacheHitPushes.Inc()
		p.pushFlowsFor(qname, addr)
		return
	}
	if pced, _, ok := p.peers.Lookup(addr); ok {
		p.sendMapFetch(pced, addr, qname)
		return
	}
	// Unknown peer: leave it to the ITR's fallback resolver.
	p.dropPending(qname, client)
}

func (p *PCE) expirePending(qname string) {
	now := p.rt.Now()
	kept := p.pending[qname][:0]
	for _, pf := range p.pending[qname] {
		if now-pf.born < p.cfg.PendingTTL {
			kept = append(kept, pf)
		} else {
			p.met.PendingExpired.Inc()
		}
	}
	if len(kept) == 0 {
		delete(p.pending, qname)
	} else {
		p.pending[qname] = kept
	}
}

func (p *PCE) dropPending(qname string, client netaddr.Addr) {
	kept := p.pending[qname][:0]
	for _, pf := range p.pending[qname] {
		if pf.client != client {
			kept = append(kept, pf)
		}
	}
	if len(kept) == 0 {
		delete(p.pending, qname)
	} else {
		p.pending[qname] = kept
	}
}

// WireXTR connects a local tunnel router: it joins the ETR sync group,
// receives mapping pushes on port P, and multicasts reverse mappings on
// first (or re-routed) decapsulated packets.
func (p *PCE) WireXTR(x *lisp.XTR) {
	p.xtrs = append(p.xtrs, x)
	x.SetSeenTTL(p.mappingTTL())
	host := x.Host()
	if p.cfg.Group.IsValid() {
		host.JoinGroup(p.cfg.Group)
	}
	host.BindUDP(x.RLOC(), packet.PortPCECP, func(src, dst netaddr.Addr, udp *packet.UDP) {
		p.handleXTRPCECP(x, udp)
	})
	x.OnDecap = func(info lisp.DecapInfo) {
		p.onDecap(x, info)
	}
	// Reachability consumption: when the xTR's prober flips a remote
	// locator or observes a local egress transition, recompute locator
	// sets and re-push the affected flows — the reaction pull-based
	// control planes can only have after TTL expiry.
	x.OnReachability = func(rloc netaddr.Addr, up bool) {
		p.onReachability(x, rloc, up, false)
	}
	x.OnEgressState = func(rloc netaddr.Addr, up bool) {
		p.onReachability(x, rloc, up, true)
	}
}

// onReachability consumes one xTR liveness report. Local egress
// transitions feed the IRC engine (recomputing the advertised and
// ingress locator sets); remote locator transitions flip the R bits in
// the PCES database and every sibling ITR's cache. Both end in a Repush
// so live flows move off (or back onto) the affected RLOC immediately.
func (p *PCE) onReachability(from *lisp.XTR, rloc netaddr.Addr, up bool, local bool) {
	p.met.ReachabilityReports.Inc()
	if local {
		for i, prov := range p.cfg.Engine.Providers() {
			if prov.RLOC == rloc {
				p.cfg.Engine.SetProviderUp(i, up)
			}
		}
	} else {
		p.remote.SetLocatorReachable(rloc, up)
		for _, x := range p.xtrs {
			if x != from {
				x.Cache.SetLocatorReachable(rloc, up)
			}
		}
	}
	if p.Repush() > 0 {
		p.met.FailoverRepushes.Inc()
	}
}

// XTRs returns the wired tunnel routers.
func (p *PCE) XTRs() []*lisp.XTR { return p.xtrs }

// handleXTRPCECP processes port-P messages at an xTR: mapping pushes from
// the PCE and reverse pushes from sibling ETRs.
func (p *PCE) handleXTRPCECP(x *lisp.XTR, udp *packet.UDP) {
	msg, ok := decodePCECP(udp.LayerPayload())
	if !ok || !p.verified(msg) {
		return
	}
	switch msg.Type {
	case packet.PCECPMappingPush, packet.PCECPReverseMapPush:
		for _, f := range msg.Flows {
			x.InstallFlow(f.SrcEID, f.DstEID, f.SrcRLOC, f.DstRLOC, f.TTL)
			kind := EvFlowInstalled
			if msg.Type == packet.PCECPReverseMapPush {
				kind = EvReverseInstalled
			}
			p.emit(Event{Kind: kind, Node: x.HostName(), SrcEID: f.SrcEID, DstEID: f.DstEID})
		}
		for _, pm := range msg.Prefixes {
			x.InstallMapping(prefixToEntry(p.rt, pm))
		}
	}
}

// onDecap implements the paper's ETR behaviour: on the first data packet
// of a flow (or when the peer's ingress RLOC visibly changed), learn the
// reverse mapping from the outer header and multicast it to the sibling
// ETRs and the PCE database.
func (p *PCE) onDecap(x *lisp.XTR, info lisp.DecapInfo) {
	fk := lisp.FlowKey{Src: info.InnerSrc, Dst: info.InnerDst}
	changed := p.lastOuter[fk].src != info.OuterSrc
	p.lastOuter[fk] = outerSeen{src: info.OuterSrc, seen: p.rt.Now()}
	p.armMaintenance()
	if !info.First && !changed {
		return
	}
	// Reverse direction: local InnerDst replies to remote InnerSrc using
	// our RLOC (the outer destination the sender chose from our mapping)
	// as source and the sender's engineered RLOCS as destination.
	rev := packet.PCEFlowMapping{
		TTL:     p.cfg.MappingTTL,
		SrcEID:  info.InnerDst,
		DstEID:  info.InnerSrc,
		SrcRLOC: info.OuterDst,
		DstRLOC: info.OuterSrc,
	}
	x.InstallFlow(rev.SrcEID, rev.DstEID, rev.SrcRLOC, rev.DstRLOC, rev.TTL)
	p.emit(Event{Kind: EvReversePushed, Node: x.HostName(), SrcEID: rev.SrcEID, DstEID: rev.DstEID})
	if !p.cfg.Group.IsValid() {
		return
	}
	msg := &packet.PCECP{
		Version: packet.PCECPVersion, Type: packet.PCECPReverseMapPush,
		Nonce: p.rt.Rand().Uint64(), PCEAddr: p.cfg.Addr,
		Flows: []packet.PCEFlowMapping{rev},
	}
	if p.cfg.AuthKey != nil {
		msg.KeyID = 1
		msg.AuthKey = p.cfg.AuthKey
	}
	x.Host().OutputUDP(x.RLOC(), p.cfg.Group, packet.PortPCECP, packet.PortPCECP, msg)
}

// SniffFrame is the PCE's bump-in-the-wire inspector, the one frame
// sniffer both engines register. Every frame crossing the PCE node pays
// it, so it peeks the few header fields it needs straight from the wire
// bytes and builds no layer structs; only frames it acts on are decoded.
func (p *PCE) SniffFrame(data []byte) runtime.Verdict {
	sport, dport, payload, ok := packet.PeekUDPPayload(data)
	if !ok {
		return runtime.VerdictPass
	}
	dst, _ := packet.PeekIPv4Dst(data)
	if p.sniffUDP(dst, sport, dport, payload) {
		return runtime.VerdictConsume
	}
	return runtime.VerdictPass
}

// sniffUDP is the sniffer's decision core over a well-formed UDP datagram
// to dst; it reports whether the frame was consumed.
func (p *PCE) sniffUDP(dst netaddr.Addr, sport, dport uint16, payload []byte) bool {
	// PCES: encapsulated replies and fetch replies to our DNSS on port P.
	if dport == packet.PortPCECP && dst == p.cfg.DNSAddr {
		return p.handlePortP(payload)
	}

	// PCED: authoritative replies leaving the domain with local EIDs.
	if sport == packet.PortDNS && dst != p.cfg.DNSAddr && !p.cfg.EIDPrefix.Contains(dst) {
		return p.maybeEncapReply(dst, payload)
	}
	return false
}

// maybeEncapReply implements step 6 for a DNS reply (payload) addressed to
// the remote DNSS at dst; it reports whether the reply was replaced
// (consumed).
func (p *PCE) maybeEncapReply(dst netaddr.Addr, payload []byte) bool {
	dns := &packet.DNS{}
	if err := dns.DecodeFromBytes(payload); err != nil || !dns.QR || !dns.AA {
		return false
	}
	ed, ok := dns.FirstA()
	if !ok || !p.cfg.EIDPrefix.Contains(ed) {
		return false
	}
	locators := p.cfg.Engine.MappingLocators()
	if len(locators) == 0 {
		// No usable provider: let the plain reply through; data will fall
		// back to the classic mapping system.
		p.met.PassthroughReplies.Inc()
		p.emit(Event{Kind: EvPassthrough, DstEID: ed})
		return false
	}
	p.met.EncapRepliesSent.Inc()
	p.emit(Event{Kind: EvEncapReplySent, DstEID: ed})
	p.addSubscriber(dst)
	msg := &packet.PCECP{
		Version: packet.PCECPVersion, Type: packet.PCECPEncapDNSReply,
		Nonce: p.rt.Rand().Uint64(), PCEAddr: p.cfg.Addr,
		Prefixes: []packet.PCEPrefixMapping{{
			Prefix: p.cfg.EIDPrefix, TTL: p.cfg.MappingTTL, Locators: locators,
		}},
	}
	// The original DNS reply rides as the inner payload; the outer
	// message goes to the same DNSS that the reply was addressed to.
	p.sendControl(dst, msg, packet.Payload(payload))
	return true
}

// handlePortP implements step 7 (PCES side). It reports whether the
// message was consumed.
func (p *PCE) handlePortP(payload []byte) bool {
	msg, ok := decodePCECP(payload)
	if !ok {
		return false
	}
	if !p.verified(msg) {
		// Consume forged port-P traffic so it never reaches DNSS either.
		return true
	}
	switch msg.Type {
	case packet.PCECPEncapDNSReply:
		p.met.EncapRepliesReceived.Inc()
		p.learnMappings(msg)
		inner := msg.LayerPayload()
		if len(inner) == 0 {
			return true
		}
		// 7a: forward the inner DNS reply to DNSS.
		p.host.OutputUDP(p.cfg.Addr, p.cfg.DNSAddr,
			packet.PortDNS, packet.PortDNS, packet.Payload(inner))
		// 7b: push the mapping for every pending flow of this qname.
		dns := &packet.DNS{}
		if err := dns.DecodeFromBytes(inner); err == nil && len(dns.Questions) > 0 {
			if ed, found := dns.FirstA(); found {
				p.emit(Event{Kind: EvEncapReplyReceived, DstEID: ed})
				p.pushFlowsFor(dnssim.CanonicalName(dns.Questions[0].Name), ed)
			}
		}
		return true
	case packet.PCECPMapFetchReply:
		p.learnMappings(msg)
		ctx, ok := p.fetches[msg.Nonce]
		if !ok {
			return true
		}
		delete(p.fetches, msg.Nonce)
		p.met.MapFetchReplies.Inc()
		p.pushFlowsFor(ctx.qname, ctx.ed)
		return true
	case packet.PCECPMappingUpdate:
		// A remote TE optimizer changed its locator weights: refresh the
		// PCES database and the ITR caches, then re-push every live flow
		// whose engineered RLOC pair moved — the one-RTT reaction that
		// pull planes only get at TTL expiry.
		p.met.WeightUpdatesReceived.Inc()
		p.learnMappings(msg)
		p.push(nil, msg.Prefixes)
		if p.Repush() > 0 {
			p.met.WeightRepushes.Inc()
		}
		return true
	}
	return false
}

// HandleControl processes port-P messages addressed to the PCE itself:
// MapFetch queries (PCED side) and multicast database updates. src is the
// outer IPv4 source (the fetch quota key).
func (p *PCE) HandleControl(src, dst netaddr.Addr, udp *packet.UDP) {
	msg, ok := decodePCECP(udp.LayerPayload())
	if !ok {
		return
	}
	// MapFetch signatures are verified at service time, inside answerFetch:
	// checking a MAC costs the same bounded control-plane budget as
	// answering, so a flood of unverifiable fetches still consumes PCED
	// capacity — the PCE is honestly a single point of attack, and only
	// the per-source quota (a cheap pre-filter) shields the queue itself.
	if msg.Type != packet.PCECPMapFetch && !p.verified(msg) {
		return
	}
	switch msg.Type {
	case packet.PCECPMapFetch:
		p.met.MapFetches.Inc()
		// A truncated or malformed fetch carries no flow record (the
		// record's SrcRLOC is the reply target); answering would
		// dereference nothing and a crash here takes down the whole
		// domain's control plane.
		if len(msg.Flows) == 0 || !msg.Flows[0].SrcRLOC.IsValid() {
			return
		}
		now := p.rt.Now()
		if p.fetchQuota != nil && !p.fetchQuota.Allow(now, src) {
			p.met.FetchQuotaDrops.Inc()
			p.rec.Record(obs.Event{
				At: time.Duration(now), Kind: obs.KDefenseReject, Node: p.host.HostName(),
				RLOC: src, Note: "fetch-quota",
			})
			return
		}
		if p.cfg.FetchServiceRate <= 0 {
			p.answerFetch(msg)
			return
		}
		// Bounded service queue, the MapResolver model: each fetch costs
		// 1/rate seconds of a single deterministic server; arrivals that
		// would wait past QueueCap service slots are shed.
		cost := runtime.Time(time.Second) / runtime.Time(p.cfg.FetchServiceRate)
		start := p.fetchBusyUntil
		if start < now {
			start = now
		}
		if start-now > cost*runtime.Time(p.cfg.FetchQueueCap) {
			p.met.FetchQueueDrops.Inc()
			p.rec.Record(obs.Event{
				At: time.Duration(now), Kind: obs.KDefenseReject, Node: p.host.HostName(),
				RLOC: src, Note: "fetch-queue-full",
			})
			return
		}
		p.fetchBusyUntil = start + cost
		p.met.FetchQueueDepth.Set(int64((p.fetchBusyUntil - now) / cost))
		// The fetch outlives this call, and answerFetch checks its MAC over
		// Contents and AuthData, which alias the datagram the host may
		// reuse by then: queue a decode of bytes of its own.
		msg, _ = decodePCECP(bytes.Clone(udp.LayerPayload()))
		p.rt.ScheduleTimer(p.fetchBusyUntil-now, p,
			runtime.TimerArg{Kind: pceTimerFetchService, P: msg})
	case packet.PCECPReverseMapPush:
		p.met.ReversePushes.Inc()
		// Database update: remember the flows (metrics only; the PCED
		// database is consulted by TE tooling).
		now := p.rt.Now()
		for _, f := range msg.Flows {
			p.lastOuter[lisp.FlowKey{Src: f.DstEID, Dst: f.SrcEID}] = outerSeen{src: f.DstRLOC, seen: now}
		}
		if len(msg.Flows) > 0 {
			p.armMaintenance()
		}
	case packet.PCECPLoadReport:
		p.met.LoadReports.Inc()
		if p.OnLoadReport != nil {
			p.OnLoadReport(src, msg.Loads)
		}
	case packet.PCECPMappingPush:
		// Multicast copy of our own push (head-end replication excludes
		// the sender, so this only happens for pushes from sibling PCEs
		// in shared-group deployments); nothing to do.
	}
}

// answerFetch serves one MapFetch query (after any service delay),
// verifying its signature first — the deferred check handleLocalPCECP
// documents.
func (p *PCE) answerFetch(msg *packet.PCECP) {
	if !p.verified(msg) {
		return
	}
	locators := p.cfg.Engine.MappingLocators()
	reply := &packet.PCECP{
		Version: packet.PCECPVersion, Type: packet.PCECPMapFetchReply,
		Nonce: msg.Nonce, PCEAddr: p.cfg.Addr,
	}
	if len(locators) > 0 {
		reply.Prefixes = []packet.PCEPrefixMapping{{
			Prefix: p.cfg.EIDPrefix, TTL: p.cfg.MappingTTL, Locators: locators,
		}}
	}
	// The reply goes to the querying PCES "toward its DNSS" like the
	// encapsulated replies, so the same interception path handles it.
	p.addSubscriber(msg.Flows[0].SrcRLOC)
	p.sendControl(msg.Flows[0].SrcRLOC, reply)
}

// verified enforces Config.AuthKey on an inbound PCECP message.
func (p *PCE) verified(msg *packet.PCECP) bool {
	if p.cfg.AuthKey == nil || msg.VerifyAuth(p.cfg.AuthKey) {
		return true
	}
	p.met.AuthRejects.Inc()
	p.rec.Record(obs.Event{
		At: time.Duration(p.rt.Now()), Kind: obs.KDefenseReject, Node: p.host.HostName(),
		RLOC: msg.PCEAddr, Note: "pcecp-auth",
	})
	return false
}

// addSubscriber remembers a remote DNSS that received this domain's
// mapping, refreshing its announcement lease.
func (p *PCE) addSubscriber(dnss netaddr.Addr) {
	if !dnss.IsValid() {
		return
	}
	p.subscribers.Insert(netaddr.HostPrefix(dnss), p.rt.Now())
	p.armMaintenance()
}

// Subscribers returns the number of live announcement targets.
func (p *PCE) Subscribers() int { return p.subscribers.Len() }

// ApplyProviderWeights installs a new locator priority/weight vector,
// indexed by provider: the IRC engine's policy is replaced by the
// explicit table (recomputing the advertised and ingress locator sets),
// the update is announced to every subscriber PCE, and live local flows
// are re-pushed so the outbound ingress choice follows too. This is the
// actuator of the closed-loop inbound TE optimizer. It returns the
// number of subscribers notified.
func (p *PCE) ApplyProviderWeights(weights []uint8) int {
	choices := make([]irc.Choice, len(weights))
	for i, w := range weights {
		choices[i] = irc.Choice{Index: i, Priority: 1, Weight: w}
	}
	p.cfg.Engine.SetPolicy(irc.WeightTable{Choices: choices})
	n := p.AnnounceMappingUpdate()
	p.Repush()
	return n
}

// AnnounceMappingUpdate pushes the current advertised mapping to every
// subscriber PCE as an unsolicited PCECPMappingUpdate. The subscriber
// trie walks in ascending address order, so the transmission order (and
// thus every downstream byte) is deterministic without sorting.
func (p *PCE) AnnounceMappingUpdate() int {
	locators := p.cfg.Engine.MappingLocators()
	if len(locators) == 0 || p.subscribers.Len() == 0 {
		return 0
	}
	targets := make([]netaddr.Addr, 0, p.subscribers.Len())
	p.subscribers.Walk(func(np netaddr.Prefix, _ runtime.Time) bool {
		targets = append(targets, np.Addr())
		return true
	})
	now := p.rt.Now()
	p.rec.Record(obs.Event{
		At: time.Duration(now), Kind: obs.KWeightPush, Node: p.host.HostName(),
		EID: p.cfg.EIDPrefix, Note: fmt.Sprintf("subscribers=%d", len(targets)),
	})
	for _, dnss := range targets {
		msg := &packet.PCECP{
			Version: packet.PCECPVersion, Type: packet.PCECPMappingUpdate,
			Nonce: p.rt.Rand().Uint64(), PCEAddr: p.cfg.Addr,
			Prefixes: []packet.PCEPrefixMapping{{
				Prefix: p.cfg.EIDPrefix, TTL: p.cfg.MappingTTL, Locators: locators,
			}},
		}
		p.met.WeightUpdatesSent.Inc()
		p.subscribers.Insert(netaddr.HostPrefix(dnss), now)
		p.sendControl(dnss, msg)
	}
	return len(targets)
}

// sendMapFetch issues the cache-hit fallback query toward a known PCED.
func (p *PCE) sendMapFetch(pced, ed netaddr.Addr, qname string) {
	nonce := p.rt.Rand().Uint64()
	p.fetches[nonce] = fetchCtx{qname: qname, ed: ed, pced: pced, tries: 1}
	p.met.MapFetches.Inc()
	p.rec.Record(obs.Event{
		At: time.Duration(p.rt.Now()), Kind: obs.KMapRequest, Node: p.host.HostName(),
		EID: netaddr.PrefixFrom(ed, 32), Note: "map-fetch",
	})
	p.emit(Event{Kind: EvMapFetchSent, DstEID: ed})
	p.transmitFetch(pced, ed, nonce)
	p.rt.ScheduleTimer(fetchRetryInterval, p,
		runtime.TimerArg{Kind: pceTimerFetchRetry, N: int64(nonce)})
}

// transmitFetch sends (or re-sends) the MapFetch query for nonce.
func (p *PCE) transmitFetch(pced, ed netaddr.Addr, nonce uint64) {
	msg := &packet.PCECP{
		Version: packet.PCECPVersion, Type: packet.PCECPMapFetch,
		Nonce: nonce, PCEAddr: p.cfg.Addr,
		// The queried EID and our DNSS (for reply interception) ride in a
		// flow record: SrcRLOC carries the reply target.
		Flows: []packet.PCEFlowMapping{{SrcEID: 0, DstEID: ed, SrcRLOC: p.cfg.DNSAddr}},
	}
	p.sendControl(pced, msg)
}

// retryFetch re-sends an unanswered MapFetch or gives up after
// fetchMaxTries, leaving the pending flows to expire on their own TTL.
func (p *PCE) retryFetch(nonce uint64) {
	ctx, ok := p.fetches[nonce]
	if !ok {
		return // answered — nothing to do
	}
	if ctx.tries >= fetchMaxTries {
		delete(p.fetches, nonce)
		return
	}
	ctx.tries++
	p.fetches[nonce] = ctx
	p.met.MapFetchRetries.Inc()
	p.transmitFetch(ctx.pced, ctx.ed, nonce)
	p.rt.ScheduleTimer(fetchRetryInterval, p,
		runtime.TimerArg{Kind: pceTimerFetchRetry, N: int64(nonce)})
}

// learnMappings ingests the prefix mappings of a PCECP message into the
// PCES database and the peer table.
func (p *PCE) learnMappings(msg *packet.PCECP) {
	for _, pm := range msg.Prefixes {
		p.remote.Insert(pm.Prefix, pm.Locators, pm.TTL)
		if msg.PCEAddr.IsValid() {
			p.peers.Insert(pm.Prefix, msg.PCEAddr)
		}
	}
}

// pushFlowsFor builds and pushes flow tuples for every pending flow of
// qname toward destination ED.
func (p *PCE) pushFlowsFor(qname string, ed netaddr.Addr) {
	entry, ok := p.remote.Lookup(ed)
	if !ok {
		return
	}
	waiting := p.pending[qname]
	if len(waiting) == 0 {
		return
	}
	delete(p.pending, qname)
	flows := make([]packet.PCEFlowMapping, 0, len(waiting))
	for _, pf := range waiting {
		flows = append(flows, p.buildFlow(pf.client, ed, pf.ingress, entry))
	}
	p.push(flows, []packet.PCEPrefixMapping{{
		Prefix: entry.EIDPrefix, TTL: p.cfg.MappingTTL, Locators: entry.Locators,
	}})
}

func (p *PCE) buildFlow(es, ed, ingress netaddr.Addr, entry *lisp.MapEntry) packet.PCEFlowMapping {
	h := packet.NewFlow(packet.NewIPv4Endpoint(es), packet.NewIPv4Endpoint(ed)).FastHash()
	dst := netaddr.Addr(0)
	if loc, ok := entry.SelectLocator(h); ok {
		dst = loc.Addr
	}
	if !ingress.IsValid() && len(p.xtrs) > 0 {
		ingress = p.xtrs[0].RLOC()
	}
	fk := lisp.FlowKey{Src: es, Dst: ed}
	p.pushed[fk] = pushedFlow{
		src:     ingress,
		dst:     dst,
		expires: p.rt.Now() + p.mappingTTL(),
	}
	p.armMaintenance()
	return packet.PCEFlowMapping{
		TTL: p.cfg.MappingTTL, SrcEID: es, DstEID: ed, SrcRLOC: ingress, DstRLOC: dst,
	}
}

// mappingTTL returns the configured mapping lifetime as virtual time.
func (p *PCE) mappingTTL() runtime.Time {
	return runtime.Time(p.cfg.MappingTTL) * runtime.Time(time.Second)
}

// armMaintenance schedules one maintenance sweep MappingTTL from now, if
// none is outstanding.
func (p *PCE) armMaintenance() {
	if p.maintArmed {
		return
	}
	p.maintArmed = true
	p.rt.ScheduleTimer(p.mappingTTL(), p, runtime.TimerArg{Kind: pceTimerMaintenance})
}

// The PCE's typed timers, discriminated by TimerArg.Kind.
const (
	// pceTimerPendingExpire ages out pending flows for the qname in
	// TimerArg.S.
	pceTimerPendingExpire = iota
	// pceTimerMaintenance runs the periodic state sweep.
	pceTimerMaintenance
	// pceTimerFetchService answers the queued MapFetch in TimerArg.P.
	pceTimerFetchService
	// pceTimerFetchRetry re-sends the unanswered MapFetch whose nonce is
	// in TimerArg.N.
	pceTimerFetchRetry
)

// OnTimer implements runtime.TimerHandler for the PCE's timers.
func (p *PCE) OnTimer(arg runtime.TimerArg) {
	switch arg.Kind {
	case pceTimerPendingExpire:
		p.expirePending(arg.S)
	case pceTimerMaintenance:
		p.runMaintenance()
	case pceTimerFetchService:
		p.answerFetch(arg.P.(*packet.PCECP))
	case pceTimerFetchRetry:
		p.retryFetch(uint64(arg.N))
	}
}

// runMaintenance ages out control-plane state tied to expired mappings:
// pushed flows past their TTL, lastOuter records idle longer than the
// TTL, announcement subscribers whose copy of our mapping has expired,
// and the ETRs' first-packet flow records (pruned by the xTRs' own
// timers, counted here only for the re-arm decision). Unrefreshed
// entries live at most 2×MappingTTL — one full sweep interval past their
// expiry. The sweep re-arms only while state remains, so a drained
// simulation's event queue still empties.
func (p *PCE) runMaintenance() {
	p.maintArmed = false
	now := p.rt.Now()
	ttl := p.mappingTTL()
	for fk, os := range p.lastOuter {
		if now-os.seen >= ttl {
			delete(p.lastOuter, fk)
		}
	}
	for fk, pf := range p.pushed {
		if now >= pf.expires {
			delete(p.pushed, fk)
		}
	}
	var idle []netaddr.Prefix
	p.subscribers.Walk(func(np netaddr.Prefix, seen runtime.Time) bool {
		if now-seen >= ttl {
			idle = append(idle, np)
		}
		return true
	})
	for _, np := range idle {
		p.subscribers.Delete(np)
	}
	remaining := len(p.lastOuter) + len(p.pushed) + p.subscribers.Len()
	for _, x := range p.xtrs {
		remaining += x.SeenSources()
	}
	if remaining > 0 {
		p.armMaintenance()
	}
}

// push multicasts a MappingPush to all local ITRs (step 7b: "the
// advantage of pushing the mapping to all ITRs is that PCES can carry out
// local TE actions ... without caring whether a mapping will be in place
// in the relevant ITRs").
func (p *PCE) push(flows []packet.PCEFlowMapping, prefixes []packet.PCEPrefixMapping) {
	if len(flows) == 0 && len(prefixes) == 0 {
		return
	}
	p.met.MappingPushes.Inc()
	p.met.FlowsPushed.Add(uint64(len(flows)))
	for _, f := range flows {
		p.emit(Event{Kind: EvMappingPushed, SrcEID: f.SrcEID, DstEID: f.DstEID})
	}
	msg := &packet.PCECP{
		Version: packet.PCECPVersion, Type: packet.PCECPMappingPush,
		Nonce: p.rt.Rand().Uint64(), PCEAddr: p.cfg.Addr,
		Flows: flows, Prefixes: prefixes,
	}
	if p.cfg.Group.IsValid() {
		p.sendControl(p.cfg.Group, msg)
		return
	}
	for _, x := range p.xtrs {
		p.sendControl(x.RLOC(), msg)
	}
}

// sendControl transmits a port-P message from the PCE, counting it for
// the overhead experiments.
func (p *PCE) sendControl(dst netaddr.Addr, layers ...packet.SerializableLayer) {
	if msg, ok := layers[0].(*packet.PCECP); ok && p.cfg.AuthKey != nil && msg.AuthKey == nil {
		msg.KeyID = 1
		msg.AuthKey = p.cfg.AuthKey
	}
	n := p.host.OutputUDP(p.cfg.Addr, dst, packet.PortPCECP, packet.PortPCECP, layers...)
	p.met.TxControlMessages.Inc()
	p.met.TxControlBytes.Add(uint64(n))
}

// Repush recomputes every live pushed flow against the current control
// state — the ingress RLOC from the IRC engine, the destination RLOC
// from the (reachability-updated) PCES database — and re-pushes the
// changed ones. This is both the paper's dynamic mapping management
// ("move part of its internal traffic") and the failover reaction to a
// probe-detected locator loss. It returns the number of flows moved.
func (p *PCE) Repush() int {
	now := p.rt.Now()
	// Walk the pushed flows in sorted key order: the moved flows are
	// serialized into one PCECP message, and map iteration order must
	// not leak into wire bytes (determinism guarantee).
	keys := make([]lisp.FlowKey, 0, len(p.pushed))
	for fk := range p.pushed {
		keys = append(keys, fk)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Src != keys[j].Src {
			return keys[i].Src < keys[j].Src
		}
		return keys[i].Dst < keys[j].Dst
	})
	var flows []packet.PCEFlowMapping
	for _, fk := range keys {
		pf := p.pushed[fk]
		if now >= pf.expires {
			delete(p.pushed, fk)
			continue
		}
		h := packet.NewFlow(packet.NewIPv4Endpoint(fk.Src), packet.NewIPv4Endpoint(fk.Dst)).FastHash()
		ingress, ok := p.cfg.Engine.IngressRLOC(h)
		if !ok {
			ingress = pf.src // engine has no usable provider: keep
		}
		dst := pf.dst
		if entry, ok := p.remote.Lookup(fk.Dst); ok {
			if loc, usable := entry.SelectLocator(h); usable {
				dst = loc.Addr
			}
		}
		if ingress == pf.src && dst == pf.dst {
			continue // nothing to move for this flow
		}
		pf.src, pf.dst = ingress, dst
		p.pushed[fk] = pf
		flows = append(flows, packet.PCEFlowMapping{
			TTL: p.cfg.MappingTTL, SrcEID: fk.Src, DstEID: fk.Dst,
			SrcRLOC: ingress, DstRLOC: dst,
		})
	}
	if len(flows) > 0 {
		p.push(flows, nil)
	}
	return len(flows)
}

func (p *PCE) emit(ev Event) {
	if p.OnEvent == nil {
		return
	}
	ev.At = p.rt.Now()
	if ev.Node == "" {
		ev.Node = p.host.HostName()
	}
	p.OnEvent(ev)
}

// decodePCECP parses a PCECP message from raw bytes.
func decodePCECP(payload []byte) (*packet.PCECP, bool) {
	pk := packet.NewPacket(payload, packet.LayerTypePCECP, packet.NoCopy)
	l := pk.Layer(packet.LayerTypePCECP)
	if l == nil {
		return nil, false
	}
	return l.(*packet.PCECP), true
}

// prefixToEntry converts a wire prefix mapping to a map-cache entry.
func prefixToEntry(rt runtime.Runtime, pm packet.PCEPrefixMapping) *lisp.MapEntry {
	e := &lisp.MapEntry{EIDPrefix: pm.Prefix, Locators: pm.Locators}
	if pm.TTL > 0 {
		e.Expires = rt.Now() + runtime.Time(pm.TTL)*runtime.Time(time.Second)
	}
	return e
}
