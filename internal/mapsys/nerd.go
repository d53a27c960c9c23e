package mapsys

import (
	"time"

	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

// NERD implements the push-database mapping system of
// draft-lear-lisp-nerd: a central authority compiles the full EID-to-RLOC
// database; every ITR periodically pulls the delta since its last version
// and installs it into an unbounded local cache. ITRs therefore (almost)
// never miss — at the cost of global state at every ITR and a staleness
// window for new prefixes, both measured in experiments E5 and E7.
//
// The original NERD distributes a signed flat file over HTTP. The
// simulation keeps the same pull-delta semantics over LISP control
// messages: the poll is a Map-Request for 0.0.0.0/0 whose nonce carries
// the requester's database version, answered by Map-Replies carrying the
// newer records (paged, 255 records per message) whose nonce carries the
// new version.
type NERD struct {
	agent   *ControlAgent
	authKey []byte
	records []versionedRecord
	version uint64

	// PollInterval is how often ITRs pull deltas (default 60s).
	PollInterval simnet.Time

	// ReplySignKey, when non-nil, signs database pages — the simulation's
	// stand-in for the signed flat file of the original NERD.
	ReplySignKey []byte

	// Stats counts authority activity.
	Stats NERDStats
}

// NERDStats counts authority activity.
type NERDStats struct {
	Registers   uint64
	BadAuth     uint64
	Polls       uint64
	RecordsSent uint64
}

type versionedRecord struct {
	version uint64
	record  packet.LISPMapRecord
}

// nerdPageSize is the maximum records per Map-Reply page.
const nerdPageSize = 255

// NewNERD attaches the authority to node at addr.
func NewNERD(node *simnet.Node, addr netaddr.Addr, authKey []byte) *NERD {
	n := &NERD{
		agent:        NewControlAgent(node, addr),
		authKey:      authKey,
		PollInterval: 60 * time.Second,
	}
	n.agent.OnMapRegister = n.onRegister
	n.agent.OnMapRequest = n.onPoll
	return n
}

// Addr returns the authority's address.
func (n *NERD) Addr() netaddr.Addr { return n.agent.addr }

// Version returns the current database version.
func (n *NERD) Version() uint64 { return n.version }

// DatabaseSize returns the number of records in the database.
func (n *NERD) DatabaseSize() int { return len(n.records) }

func (n *NERD) onRegister(src netaddr.Addr, m *packet.LISPMapRegister) {
	if !m.VerifyAuth(n.authKey) {
		n.Stats.BadAuth++
		return
	}
	n.Stats.Registers++
	for _, r := range m.Records {
		n.version++
		n.records = append(n.records, versionedRecord{version: n.version, record: r})
	}
}

func (n *NERD) onPoll(src netaddr.Addr, m *packet.LISPMapRequest) {
	if len(m.EIDPrefixes) == 0 || m.EIDPrefixes[0].Bits() != 0 {
		return // not a database poll
	}
	n.Stats.Polls++
	since := m.Nonce
	var page []packet.LISPMapRecord
	flush := func() {
		if len(page) == 0 {
			return
		}
		n.Stats.RecordsSent += uint64(len(page))
		n.agent.Send(src, &packet.LISPMapReply{Nonce: n.version, KeyID: 1, AuthKey: n.ReplySignKey, Records: page})
		page = nil
	}
	for _, vr := range n.records {
		if vr.version <= since {
			continue
		}
		page = append(page, vr.record)
		if len(page) == nerdPageSize {
			flush()
		}
	}
	flush()
	if since >= n.version {
		// Nothing new: still answer so the poller can observe liveness.
		n.agent.Send(src, &packet.LISPMapReply{Nonce: n.version, KeyID: 1, AuthKey: n.ReplySignKey})
	}
}

// NERDPoller runs on an ITR node: it pulls deltas from the authority and
// installs every record into the xTR's (unbounded) map-cache.
type NERDPoller struct {
	agent     *ControlAgent
	xtr       *lisp.XTR
	authority netaddr.Addr
	interval  simnet.Time
	version   uint64

	// OnInstall, when set, fires for every record installed (experiment
	// instrumentation: mapping-readiness timing).
	OnInstall func(prefix netaddr.Prefix)

	// VerifyKey, when non-nil, rejects unsigned or mis-signed pages —
	// without it the source-address check below is the poller's only
	// guard, and source addresses are trivially spoofable.
	VerifyKey []byte

	// Stats counts poller activity.
	Stats NERDPollerStats
}

// NERDPollerStats counts poller activity.
type NERDPollerStats struct {
	Polls            uint64
	RecordsInstalled uint64
	BytesReceived    uint64
	// AuthRejects counts pages dropped for a missing or bad signature.
	AuthRejects uint64
}

// NewNERDPoller starts polling after firstDelay (a booting ITR waits for
// the database to exist) and then every interval.
func NewNERDPoller(agent *ControlAgent, xtr *lisp.XTR, authority netaddr.Addr, firstDelay, interval simnet.Time) *NERDPoller {
	p := &NERDPoller{agent: agent, xtr: xtr, authority: authority, interval: interval}
	agent.OnMapReply = p.onReply
	agent.node.Sim().ScheduleTimer(firstDelay, p, simnet.TimerArg{})
	return p
}

// OnTimer implements simnet.TimerHandler: the periodic database poll.
func (p *NERDPoller) OnTimer(simnet.TimerArg) { p.poll() }

// Version returns the last database version seen.
func (p *NERDPoller) Version() uint64 { return p.version }

func (p *NERDPoller) poll() {
	p.Stats.Polls++
	req := &packet.LISPMapRequest{
		Nonce:       p.version,
		ITRRLOCs:    []netaddr.Addr{p.agent.addr},
		EIDPrefixes: []netaddr.Prefix{netaddr.PrefixFrom(0, 0)},
	}
	p.agent.Send(p.authority, req)
	p.agent.node.Sim().ScheduleTimer(p.interval, p, simnet.TimerArg{})
}

func (p *NERDPoller) onReply(src netaddr.Addr, m *packet.LISPMapReply) {
	if p.VerifyKey != nil && !m.VerifyAuth(p.VerifyKey) {
		p.Stats.AuthRejects++
		return
	}
	if src != p.authority {
		return
	}
	if m.Nonce > p.version {
		p.version = m.Nonce
	}
	for _, r := range m.Records {
		p.Stats.RecordsInstalled++
		// NERD records are authoritative database state, not cache
		// entries: install without TTL so they never age out.
		p.xtr.Cache.Insert(r.EIDPrefix, r.Locators, 0)
		if p.OnInstall != nil {
			p.OnInstall(r.EIDPrefix)
		}
	}
}

// NERDSystem is the deployment wrapper implementing System.
type NERDSystem struct {
	// Authority is the central database.
	Authority *NERD
	// FirstPoll delays each ITR's initial database pull so boot-time
	// registrations land first (default 1s).
	FirstPoll simnet.Time
	authKey   []byte
	agents    map[*simnet.Node]*ControlAgent
	pollers   map[*simnet.Node]*NERDPoller
}

// NewNERDSystem wraps an authority as a System.
func NewNERDSystem(authority *NERD, authKey []byte) *NERDSystem {
	return &NERDSystem{
		Authority: authority,
		FirstPoll: time.Second,
		authKey:   authKey,
		agents:    make(map[*simnet.Node]*ControlAgent),
		pollers:   make(map[*simnet.Node]*NERDPoller),
	}
}

// Name implements System.
func (s *NERDSystem) Name() string { return "NERD" }

// ControlTotals sums control traffic across the authority and every site
// agent.
func (s *NERDSystem) ControlTotals() ControlStats {
	agents := []*ControlAgent{s.Authority.agent}
	for _, a := range s.agents {
		agents = append(agents, a)
	}
	return SumControlStats(agents)
}

// AttachSite registers the site's prefix with the authority. The returned
// resolver is nil: NERD ITRs never resolve on demand — use WireXTR to
// start the poller that fills their caches.
func (s *NERDSystem) AttachSite(site *Site) lisp.Resolver {
	agent := s.agentFor(site.Node, site.Addr)
	key := site.AuthKey
	if key == nil {
		key = s.authKey
	}
	reg := &packet.LISPMapRegister{
		Nonce:   agent.node.Sim().Rand().Uint64(),
		KeyID:   1,
		AuthKey: key,
		Records: []packet.LISPMapRecord{site.Record()},
	}
	agent.Send(s.Authority.Addr(), reg)
	return nil
}

// RefreshSite implements System: re-register the site's record with the
// authority, bumping the database version so every poller picks up the
// change on its next delta poll — NERD's reconvergence horizon.
func (s *NERDSystem) RefreshSite(site *Site) {
	if _, ok := s.agents[site.Node]; !ok {
		return // never attached
	}
	s.AttachSite(site)
}

// WireXTR starts the delta poller feeding the xTR's map-cache.
func (s *NERDSystem) WireXTR(xtr *lisp.XTR) *NERDPoller {
	node := xtr.Host().(*simnet.Node) // NERD pollers are sim-only
	if p, ok := s.pollers[node]; ok {
		return p
	}
	agent := s.agentFor(node, xtr.RLOC())
	p := NewNERDPoller(agent, xtr, s.Authority.Addr(), s.FirstPoll, s.Authority.PollInterval)
	s.pollers[node] = p
	return p
}

func (s *NERDSystem) agentFor(node *simnet.Node, addr netaddr.Addr) *ControlAgent {
	if a, ok := s.agents[node]; ok {
		return a
	}
	a := NewControlAgent(node, addr)
	s.agents[node] = a
	return a
}
