package mapsys

import (
	"time"

	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/obs"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

// MapServer is the registration point of the MS/MR mapping system
// (draft-ietf-lisp-ms): ETRs register their prefixes with authenticated
// Map-Registers; Map-Requests arriving (via Map-Resolvers) are forwarded
// to the registered ETR, which map-replies directly to the querying ITR.
type MapServer struct {
	agent   *ControlAgent
	authKey []byte
	sites   *netaddr.Trie[registeredSite]

	// ReplySignKey, when non-nil, signs the server's negative Map-Replies
	// so forged "no mapping" answers cannot impersonate it.
	ReplySignKey []byte

	met msCounters[obs.Counter]
}

// msCounters is the map-server's one counter list: the pcelisp_ms_*
// series, live as obs.Counter cells and snapshotted as MapServerStats.
type msCounters[T any] struct {
	Registers    T `metric:"registers_total" help:"Map-Registers accepted by the map-server."`
	BadAuth      T `metric:"bad_auth_total" help:"Map-Registers rejected for bad authentication."`
	Forwarded    T `metric:"forwarded_total" help:"Map-Requests forwarded to a registered ETR."`
	Negatives    T `metric:"negatives_total" help:"Negative Map-Replies sent for unregistered prefixes."`
	NotifiesSent T `metric:"notifies_sent_total" help:"Map-Notify messages sent."`
}

// MapServerStats counts map-server activity.
type MapServerStats = msCounters[uint64]

// Stats returns a snapshot of the server's counters.
func (ms *MapServer) Stats() MapServerStats { return obs.Snapshot[MapServerStats](&ms.met) }

// RegisterMetrics publishes the server's counters on r under
// pcelisp_ms_* with a node label.
func (ms *MapServer) RegisterMetrics(r *obs.Registry) {
	r.RegisterSet("pcelisp_ms_", &ms.met, obs.Label{Key: "node", Value: ms.agent.node.Name()})
}

type registeredSite struct {
	record  packet.LISPMapRecord
	etrAddr netaddr.Addr
}

// NewMapServer attaches a map-server to node at addr. authKey
// authenticates all sites (per-site keys are an easy extension the
// experiments do not need).
func NewMapServer(node *simnet.Node, addr netaddr.Addr, authKey []byte) *MapServer {
	ms := &MapServer{
		agent:   NewControlAgent(node, addr),
		authKey: authKey,
		sites:   netaddr.NewTrie[registeredSite](),
	}
	ms.agent.OnMapRegister = ms.onRegister
	ms.agent.OnMapRequest = ms.onRequest
	return ms
}

// Addr returns the map-server's address.
func (ms *MapServer) Addr() netaddr.Addr { return ms.addrOf() }

func (ms *MapServer) addrOf() netaddr.Addr { return ms.agent.addr }

// RegisteredSites returns the number of registered prefixes.
func (ms *MapServer) RegisteredSites() int { return ms.sites.Len() }

func (ms *MapServer) onRegister(src netaddr.Addr, m *packet.LISPMapRegister) {
	if !m.VerifyAuth(ms.authKey) {
		ms.met.BadAuth.Inc()
		return
	}
	ms.met.Registers.Inc()
	for _, r := range m.Records {
		ms.sites.Insert(r.EIDPrefix, registeredSite{record: r, etrAddr: src})
	}
	if m.WantNotify {
		ms.met.NotifiesSent.Inc()
		notify := &packet.LISPMapNotify{LISPMapRegister: packet.LISPMapRegister{
			Nonce: m.Nonce, KeyID: m.KeyID, AuthKey: ms.authKey, Records: m.Records,
		}}
		ms.agent.Send(src, notify)
	}
}

func (ms *MapServer) onRequest(src netaddr.Addr, m *packet.LISPMapRequest) {
	if len(m.EIDPrefixes) == 0 || len(m.ITRRLOCs) == 0 {
		return
	}
	eid := m.EIDPrefixes[0].Addr()
	site, _, ok := ms.sites.Lookup(eid)
	if !ok {
		ms.met.Negatives.Inc()
		ms.agent.Send(m.ITRRLOCs[0], &packet.LISPMapReply{Nonce: m.Nonce, KeyID: 1, AuthKey: ms.ReplySignKey})
		return
	}
	ms.met.Forwarded.Inc()
	ms.agent.SendECM(site.etrAddr, m)
}

// MapResolver accepts ECM Map-Requests from ITRs and forwards them to the
// map-server (RFC 6833 §4.4). The indirection leg is part of T_map.
//
// By default the resolver forwards immediately (infinite capacity — the
// pre-E13 behavior, byte-identical). With ServiceRate set it models a
// bounded control-plane processor: each request costs 1/ServiceRate
// seconds of a single FIFO server, requests arriving when the backlog
// exceeds QueueCap service slots are dropped, and a per-source quota can
// shield the queue from a flooding source.
type MapResolver struct {
	agent *ControlAgent
	ms    netaddr.Addr

	// ServiceRate is the requests-per-second the resolver can process
	// (0 = infinite, forward immediately).
	ServiceRate int
	// QueueCap bounds the backlog in service slots when ServiceRate is
	// set (0 = a default of 64).
	QueueCap int
	// Quota, when non-nil, is consulted per source before queueing.
	Quota *lisp.SourceQuota

	busyUntil simnet.Time

	met mrMetrics
}

// mrCounters is the map-resolver's one counter list: the pcelisp_mr_*
// series, live as obs.Counter cells and snapshotted as MapResolverStats.
type mrCounters[T any] struct {
	Forwarded  T `metric:"forwarded_total" help:"Map-Requests forwarded to the map-server."`
	QueueDrops T `metric:"queue_drops_total" help:"Map-Requests shed because the service backlog exceeded QueueCap."`
	QuotaDrops T `metric:"quota_drops_total" help:"Map-Requests shed by the per-source quota."`
}

// MapResolverStats counts map-resolver activity.
type MapResolverStats = mrCounters[uint64]

// mrMetrics is the resolver's live metric set.
type mrMetrics struct {
	mrCounters[obs.Counter]
	QueueDepth obs.Gauge `metric:"queue_depth" help:"Service-queue backlog in request slots."`
}

// Stats returns a snapshot of the resolver's counters.
func (mr *MapResolver) Stats() MapResolverStats {
	return obs.Snapshot[MapResolverStats](&mr.met.mrCounters)
}

// RegisterMetrics publishes the resolver's counters on r under
// pcelisp_mr_* with a node label.
func (mr *MapResolver) RegisterMetrics(r *obs.Registry) {
	r.RegisterSet("pcelisp_mr_", &mr.met, obs.Label{Key: "node", Value: mr.agent.node.Name()})
}

// NewMapResolver attaches a map-resolver to node at addr, forwarding to
// the map-server at ms.
func NewMapResolver(node *simnet.Node, addr, ms netaddr.Addr) *MapResolver {
	mr := &MapResolver{agent: NewControlAgent(node, addr), ms: ms}
	mr.agent.OnMapRequest = mr.onRequest
	return mr
}

func (mr *MapResolver) onRequest(src netaddr.Addr, m *packet.LISPMapRequest) {
	now := mr.agent.node.Sim().Now()
	if mr.Quota != nil && !mr.Quota.Allow(now, src) {
		mr.met.QuotaDrops.Inc()
		return
	}
	if mr.ServiceRate <= 0 {
		mr.met.Forwarded.Inc()
		mr.agent.SendECM(mr.ms, m)
		return
	}
	cost := simnet.Time(time.Second) / simnet.Time(mr.ServiceRate)
	cap := mr.QueueCap
	if cap <= 0 {
		cap = 64
	}
	start := mr.busyUntil
	if start < now {
		start = now
	}
	if start-now > cost*simnet.Time(cap) {
		mr.met.QueueDrops.Inc()
		return
	}
	mr.busyUntil = start + cost
	mr.met.QueueDepth.Set(int64((mr.busyUntil - now) / cost))
	// Each queued request carries its own completion timer: the queue
	// itself is implicit in busyUntil, so no container to drain.
	mr.agent.node.Sim().ScheduleTimer(mr.busyUntil-now, mr, simnet.TimerArg{P: m})
}

// OnTimer implements simnet.TimerHandler: one request leaves the service
// queue and is forwarded to the map-server.
func (mr *MapResolver) OnTimer(arg simnet.TimerArg) {
	mr.met.Forwarded.Inc()
	mr.met.QueueDepth.Add(-1)
	mr.agent.SendECM(mr.ms, arg.P.(*packet.LISPMapRequest))
}

// Addr returns the map-resolver's address.
func (mr *MapResolver) Addr() netaddr.Addr { return mr.agent.addr }

// MSMR is a full Map-Server/Map-Resolver deployment.
type MSMR struct {
	// MS is the map-server.
	MS *MapServer
	// MR is the map-resolver ITRs query.
	MR *MapResolver
	// RegisterInterval is the periodic re-registration period
	// (default 60s, RFC 6833 suggests 1 minute).
	RegisterInterval simnet.Time
	authKey          []byte
	agents           map[*simnet.Node]*ControlAgent
	regs             map[*Site]*registration
}

// NewMSMR builds the deployment with the map-server on msNode and the
// map-resolver on mrNode (they may be the same node only if different
// addresses are used — each binds its own agent, so distinct nodes are
// expected).
func NewMSMR(msNode *simnet.Node, msAddr netaddr.Addr, mrNode *simnet.Node, mrAddr netaddr.Addr, authKey []byte) *MSMR {
	return &MSMR{
		MS:               NewMapServer(msNode, msAddr, authKey),
		MR:               NewMapResolver(mrNode, mrAddr, msAddr),
		RegisterInterval: 60 * time.Second,
		authKey:          authKey,
		agents:           make(map[*simnet.Node]*ControlAgent),
		regs:             make(map[*Site]*registration),
	}
}

// Name implements System.
func (m *MSMR) Name() string { return "MS/MR" }

// ControlTotals sums control traffic across the map-server, map-resolver
// and every site agent.
func (m *MSMR) ControlTotals() ControlStats {
	agents := []*ControlAgent{m.MS.agent, m.MR.agent}
	for _, a := range m.agents {
		agents = append(agents, a)
	}
	return SumControlStats(agents)
}

// AttachSite wires a site: its agent answers Map-Requests (ETR role),
// registers with the map-server now and periodically, and the returned
// resolver sends ECM Map-Requests to the map-resolver (ITR role).
func (m *MSMR) AttachSite(site *Site) lisp.Resolver {
	agent := m.agentFor(site.Node, site.Addr)
	ETRResponder(agent, site)
	reg := &registration{agent: agent, site: site}
	m.regs[site] = reg
	m.register(reg)

	req := NewRequester(agent)
	req.ECM = true
	mrAddr := m.MR.Addr()
	req.Target = func(netaddr.Addr) netaddr.Addr { return mrAddr }
	return req
}

func (m *MSMR) agentFor(node *simnet.Node, addr netaddr.Addr) *ControlAgent {
	if a, ok := m.agents[node]; ok {
		return a
	}
	a := NewControlAgent(node, addr)
	m.agents[node] = a
	return a
}

func (m *MSMR) register(reg *registration) {
	m.sendRegister(reg)
	reg.agent.node.Sim().ScheduleTimer(m.RegisterInterval, m, simnet.TimerArg{P: reg})
}

// sendRegister issues one Map-Register without touching the periodic
// re-arm (RefreshSite uses it for out-of-band updates).
func (m *MSMR) sendRegister(reg *registration) {
	agent, site := reg.agent, reg.site
	key := site.AuthKey
	if key == nil {
		key = m.authKey
	}
	msg := &packet.LISPMapRegister{
		ProxyReply: false, WantNotify: false,
		Nonce:   agent.node.Sim().Rand().Uint64(),
		KeyID:   1,
		AuthKey: key,
		Records: []packet.LISPMapRecord{site.Record()},
	}
	agent.Send(m.MS.Addr(), msg)
}

// RefreshSite implements System: re-register immediately so the
// map-server's stored copy reflects the changed record (the ETR itself
// already answers live).
func (m *MSMR) RefreshSite(site *Site) {
	if reg, ok := m.regs[site]; ok {
		m.sendRegister(reg)
	}
}

// registration carries one ETR's periodic re-registration context
// through the typed register timer. Allocated once per attached site and
// reused by every re-arm.
type registration struct {
	agent *ControlAgent
	site  *Site
}

// OnTimer implements simnet.TimerHandler: the periodic re-registration.
func (m *MSMR) OnTimer(arg simnet.TimerArg) {
	m.register(arg.P.(*registration))
}
