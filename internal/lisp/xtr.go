package lisp

import (
	"bytes"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/obs"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// MissPolicy selects what an ITR does with packets that miss the
// map-cache while the mapping resolves — the subject of claim (i).
type MissPolicy int

const (
	// MissDrop drops the packet (the draft-08 default the paper
	// criticizes: "the initial packets ... can be dropped at the ITR").
	MissDrop MissPolicy = iota
	// MissQueue buffers packets per destination EID and replays them when
	// the mapping arrives — the "debatable features to border routers"
	// palliative.
	MissQueue
)

// String names the policy.
func (p MissPolicy) String() string {
	switch p {
	case MissDrop:
		return "drop"
	case MissQueue:
		return "queue"
	default:
		return "?"
	}
}

// Resolver is the ITR's interface to a mapping system (ALT, CONS, NERD,
// MS/MR). Resolve must eventually call done exactly once; ok=false means
// the resolution failed. A failure may carry a non-nil entry with
// Negative set: an authoritative "this EID is unresolvable" answer,
// which the ITR negative-caches (RFC 2308 style). A nil entry is a
// transient failure (timeout, loss) and must NOT be negative-cached —
// the next packet retries.
type Resolver interface {
	Resolve(eid netaddr.Addr, done func(entry *MapEntry, ok bool))
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(eid netaddr.Addr, done func(entry *MapEntry, ok bool))

// Resolve implements Resolver.
func (f ResolverFunc) Resolve(eid netaddr.Addr, done func(entry *MapEntry, ok bool)) {
	f(eid, done)
}

// xtrCounters is the xTR's one counter list: each field is a series of
// the pcelisp_xtr_* family (name and help in its tag), instantiated
// with obs.Counter as the live set the hot paths increment and with
// uint64 as the XTRStats snapshot.
type xtrCounters[T any] struct {
	EncapPackets T `metric:"encap_packets_total" help:"Packets encapsulated toward remote RLOCs."`
	EncapCopies  T `metric:"encap_copies_total" help:"Established-flow encapsulations that allocated a new frame because the inner frame came without tail-room."`
	DecapPackets T `metric:"decap_packets_total" help:"Packets decapsulated for local delivery."`
	// CacheMissDrops is the paper's headline problem.
	CacheMissDrops        T `metric:"cache_miss_drops_total" help:"Data packets dropped by the drop miss policy during resolution."`
	QueuedPackets         T `metric:"queued_packets_total" help:"Packets buffered by the queue miss policy."`
	QueueOverflows        T `metric:"queue_overflows_total" help:"Buffer-full drops under the queue miss policy."`
	QueueTimeouts         T `metric:"queue_timeouts_total" help:"Buffered packets dropped because resolution never answered."`
	Replayed              T `metric:"replayed_packets_total" help:"Buffered packets sent after late mapping arrival."`
	ResolutionsStarted    T `metric:"resolutions_started_total" help:"Mapping-system resolutions triggered by cache misses."`
	ResolutionsFailed     T `metric:"resolutions_failed_total" help:"Resolutions that came back negative or unusable."`
	ResolutionsSuppressed T `metric:"resolutions_suppressed_total" help:"Resolutions skipped via the negative cache."`
	FlowMappingsUsed      T `metric:"flow_mappings_used_total" help:"Encapsulations that used a per-flow PCE entry."`
	NonEIDForwarded       T `metric:"non_eid_forwarded_total" help:"Intercepted packets that were not EID-sourced."`

	// RLOC-probing activity (see probe.go). ProbesSent / ProbeRepliesSent
	// are the prober's control-overhead contribution.
	ProbesSent       T `metric:"probes_sent_total" help:"RLOC probes sent."`
	ProbeRepliesSent T `metric:"probe_replies_sent_total" help:"RLOC probe replies sent."`
	ProbeAcks        T `metric:"probe_acks_total" help:"RLOC probe acknowledgements received."`
	ProbeTimeouts    T `metric:"probe_timeouts_total" help:"RLOC probe timeouts."`
	ProbesSkipped    T `metric:"probes_skipped_total" help:"Probe rounds withheld because the local egress was down."`
	LocatorDowns     T `metric:"locator_downs_total" help:"Probe-driven locator down transitions."`
	LocatorUps       T `metric:"locator_ups_total" help:"Probe-driven locator up transitions."`
	EgressDowns      T `metric:"egress_downs_total" help:"Local egress-watch down transitions."`
	EgressUps        T `metric:"egress_ups_total" help:"Local egress-watch up transitions."`

	// The telemetry contribution to control overhead (telemetry.go).
	TelemetryReports T `metric:"telemetry_reports_total" help:"Link-load telemetry reports streamed to the TE collector."`
	TelemetryBytes   T `metric:"telemetry_bytes_total" help:"Bytes of link-load telemetry streamed to the TE collector."`

	MappingsRejected T `metric:"mappings_rejected_total" help:"Mappings refused by install hardening (no locators, overclaim floor)."`
	GleansSuppressed T `metric:"gleans_suppressed_total" help:"New flows whose decap-path gleaning was rate-limited."`
}

// XTRStats counts tunnel-router activity.
type XTRStats = xtrCounters[uint64]

// xtrMetrics is the xTR's live metric set, embedded by value so the hot
// paths pay a plain atomic add and zero allocations whether or not a
// registry is scraping.
type xtrMetrics struct {
	xtrCounters[obs.Counter]
	// ResolutionSeconds is the operator-facing face of the paper's T_map.
	ResolutionSeconds obs.Histogram `metric:"resolution_seconds" help:"Cache-miss resolution latency (request to applied answer)."`
}

// resolutionBounds buckets resolution latency from sub-millisecond
// (intra-PoP PCE fetch) to tens of seconds (retransmitting pull planes).
var resolutionBounds = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// XTRConfig configures a tunnel router.
type XTRConfig struct {
	// RLOC is the router's own locator, the default outer source.
	RLOC netaddr.Addr
	// LocalEIDs is the site's EID prefix: packets destined inside it are
	// never encapsulated, and only packets sourced inside it are.
	LocalEIDs netaddr.Prefix
	// EIDSpace is the global EID space; destinations outside it are plain
	// transit (RLOC-addressed) traffic.
	EIDSpace netaddr.Prefix
	// CacheCapacity bounds the map-cache (0 = unbounded).
	CacheCapacity int
	// CachePolicy names the map-cache eviction policy ("lru", "lfu",
	// "2q"; "" = LRU). Unknown names panic at install time.
	CachePolicy string
	// MissPolicy selects drop vs queue behaviour.
	MissPolicy MissPolicy
	// QueueCapPerEID bounds buffered packets per destination EID under
	// MissQueue (default 8).
	QueueCapPerEID int
	// QueueTimeout bounds how long packets wait for a mapping
	// (default 3s).
	QueueTimeout runtime.Time
	// NegativeTTL is the negative-cache lifetime in seconds for failed
	// resolutions (default 5). DisableNegativeCache turns it off.
	NegativeTTL          uint32
	DisableNegativeCache bool
	// OverclaimFloor rejects mappings whose EID prefix is shorter than
	// this many bits (0 = accept any): a crafted covering reply (say a
	// /8 answering a host query) would otherwise hijack every future
	// miss under it. Set it to the deployment's coarsest legitimate site
	// prefix length.
	OverclaimFloor int
	// GleanRateLimit bounds how many *new* (inner src, inner dst) flows
	// per second the ETR will glean state for on the decap path (0 =
	// unlimited). Spoofed tunnel packets otherwise force unbounded
	// reverse-mapping work through OnDecap.
	GleanRateLimit int
	// Resolver is the mapping system to consult on cache misses. May be
	// nil for pure-push control planes (NERD, PCE-CP), in which case
	// misses follow the policy with no resolution.
	Resolver Resolver
	// Obs, when set, registers the xTR's (and its map-cache's) metric
	// sets with the registry, labeled by the hosting node. Nil leaves the
	// counters live but unscraped — the hot-path cost is identical.
	Obs *obs.Registry
	// Recorder, when set, receives control-plane decision events
	// (resolutions, installs/rejects, probe flips).
	Recorder *obs.FlightRecorder
}

// XTR is a LISP tunnel router combining the ITR (encapsulate) and ETR
// (decapsulate) roles, as border routers do in practice and in the paper's
// Fig. 1. Install it on a border host with NewXTR.
type XTR struct {
	// rt and host are the runtime seam: every clock read, timer arm and
	// frame emission goes through them, so the same state machine runs
	// under the deterministic sim and the real-time overlay daemon.
	rt   runtime.Runtime
	host runtime.Host
	cfg  XTRConfig

	// Cache is the EID-prefix map-cache.
	Cache *MapCache
	// Flows is the per-flow table installed by the PCE control plane.
	Flows *FlowTable

	queue map[netaddr.Addr][]queuedPacket
	// queueTimer marks destinations with an outstanding expiry timer:
	// exactly one per queued EID, re-armed at the head packet's deadline,
	// instead of one callback per queued packet.
	queueTimer map[netaddr.Addr]bool
	resolving  map[netaddr.Addr]bool

	// OnDecap, when set, is invoked for every decapsulated packet. The
	// PCE control plane hooks it to learn and multicast reverse mappings.
	OnDecap func(info DecapInfo)

	// OnReachability, when set, receives probe-driven remote locator
	// transitions (see EnableProbing); the cache's Reachable bits are
	// already flipped when it fires.
	OnReachability func(rloc netaddr.Addr, up bool)
	// OnEgressState, when set, receives local egress interface
	// transitions for RLOCs registered with WatchEgress.
	OnEgressState func(rloc netaddr.Addr, up bool)

	// RLOC probing state (see probe.go).
	probing      bool
	probeCfg     ProbeConfig
	probes       map[netaddr.Addr]*probeState
	probeTargets []netaddr.Addr // per-tick scratch, reused
	egress       []egressWatch

	// Link-load telemetry state (see telemetry.go); nil while disabled.
	telemetry *TelemetryConfig

	// seenSources records when each (inner src, inner dst) flow was last
	// seen at this ETR. Entries older than seenTTL are pruned by a
	// self-disarming timer so long-running simulations hold steady
	// memory; a pruned flow's next packet counts as First again (its
	// mapping state has aged out everywhere else too).
	seenSources map[FlowKey]runtime.Time
	seenTTL     runtime.Time
	seenArmed   bool

	// Glean rate-limit window state (see XTRConfig.GleanRateLimit).
	gleanWin   runtime.Time
	gleanCount int

	// Serialization scratch reused across encaps: the Sim is single-
	// threaded and packet.Serialize copies everything into its output
	// buffer, so rebuilding the outer headers in place avoids four heap
	// allocations per encapsulated packet.
	encIP      packet.IPv4
	encUDP     packet.UDP
	encLISP    packet.LISP
	encPayload packet.Payload
	encLayers  [4]packet.SerializableLayer

	// pins is the established-flow fast path for cache-driven encap: per
	// flow, the map-cache entry, its locator-mutation generation, the
	// pre-serialized outer-header template for the selected locator and
	// the cached egress interface. A pin is used only while the entry
	// pointer and generation still match, so reachability flips,
	// InvalidateSelection, SetLocators and entry replacement all force a
	// packet back through SelectLocator and re-pin. Bounded by
	// maxFlowPins with wholesale reset.
	pins map[FlowKey]flowPin

	// disableFastPath forces every packet through the slow (full
	// serialization) encap path. Tests flip it to differentially verify
	// that the template fast path is byte-identical.
	disableFastPath bool

	// rec is the control-plane flight recorder (nil-safe).
	met xtrMetrics
	rec *obs.FlightRecorder
}

// Stats snapshots the xTR's activity counters.
func (x *XTR) Stats() XTRStats { return obs.Snapshot[XTRStats](&x.met.xtrCounters) }

type queuedPacket struct {
	data     []byte
	deadline runtime.Time
}

// flowPin is one established flow's pinned encap state.
type flowPin struct {
	entry *MapEntry
	gen   uint32
	tmpl  *packet.EncapTemplate
	out   runtime.Egress // egress for the source RLOC; nil = routed Output
}

// maxFlowPins bounds the pin map; reaching it resets the map wholesale
// (every flow then re-pins on its next packet), trading a rare hiccup for
// bounded memory in million-flow worlds.
const maxFlowPins = 8192

// NewXTR builds a tunnel router against the runtime contract — the one
// constructor both engines use (a *simnet.Node under the simulator, the
// overlay host under cmd/lispd). It registers the outbound intercept
// sniffer, which encapsulates EID-destined packets leaving the site, and
// the port 4341 decap fast path on the host.
func NewXTR(rt runtime.Runtime, host runtime.Host, cfg XTRConfig) *XTR {
	if cfg.QueueCapPerEID == 0 {
		cfg.QueueCapPerEID = 8
	}
	if cfg.QueueTimeout == 0 {
		cfg.QueueTimeout = 3 * time.Second
	}
	if cfg.NegativeTTL == 0 {
		cfg.NegativeTTL = 5
	}
	if cfg.DisableNegativeCache {
		cfg.NegativeTTL = 0
	}
	factory, ok := PolicyByName(cfg.CachePolicy)
	if !ok {
		panic("lisp: unknown cache policy " + cfg.CachePolicy)
	}
	x := &XTR{
		rt:          rt,
		host:        host,
		cfg:         cfg,
		Cache:       NewMapCacheWithPolicy(rt, cfg.CacheCapacity, factory(cfg.CacheCapacity)),
		Flows:       NewFlowTable(rt),
		queue:       make(map[netaddr.Addr][]queuedPacket),
		queueTimer:  make(map[netaddr.Addr]bool),
		resolving:   make(map[netaddr.Addr]bool),
		seenSources: make(map[FlowKey]runtime.Time),
		pins:        make(map[FlowKey]flowPin),
		rec:         cfg.Recorder,
	}
	x.met.ResolutionSeconds.Init(resolutionBounds)
	cfg.Obs.RegisterSet("pcelisp_xtr_", &x.met, obs.Label{Key: "node", Value: host.HostName()})
	x.Cache.RegisterMetrics(cfg.Obs, host.HostName(), obs.Label{Key: "cache", Value: "itr"})
	host.AddFrameSniffer(x.InterceptFrame)
	host.BindUDPRaw(packet.PortLISPData, x.DecapFrame)
	return x
}

// Host returns the runtime host the xTR is bound to.
func (x *XTR) Host() runtime.Host { return x.host }

// HostName names the hosting node/daemon for traces and events.
func (x *XTR) HostName() string { return x.host.HostName() }

// SetResolver installs the mapping system consulted on cache misses.
// Control planes are wired after the data plane, so this is settable.
func (x *XTR) SetResolver(r Resolver) { x.cfg.Resolver = r }

// MissPolicy returns the configured miss policy.
func (x *XTR) MissPolicy() MissPolicy { return x.cfg.MissPolicy }

// RLOC returns the router's own locator.
func (x *XTR) RLOC() netaddr.Addr { return x.cfg.RLOC }

// LocalEIDs returns the site prefix.
func (x *XTR) LocalEIDs() netaddr.Prefix { return x.cfg.LocalEIDs }

// SetSeenTTL bounds the lifetime of first-packet flow records (0 = keep
// forever). The PCE control plane ties this to its mapping TTL when it
// wires the xTR.
func (x *XTR) SetSeenTTL(ttl runtime.Time) {
	x.seenTTL = ttl
	if len(x.seenSources) > 0 {
		x.armSeenPrune()
	}
}

// SeenSources returns the number of tracked first-packet flow records.
func (x *XTR) SeenSources() int { return len(x.seenSources) }

// The XTR's typed timers, discriminated by TimerArg.Kind.
const (
	// xtrTimerSeenPrune ages out first-packet flow records.
	xtrTimerSeenPrune = iota
	// xtrTimerQueueExpiry drops timed-out miss-queue packets for the EID
	// in TimerArg.N.
	xtrTimerQueueExpiry
	// xtrTimerProbeTick runs one RLOC-probing round (probe.go).
	xtrTimerProbeTick
	// xtrTimerTelemetry samples link loads and ships one report
	// (telemetry.go).
	xtrTimerTelemetry
)

// OnTimer implements runtime.TimerHandler for the xTR's timers.
func (x *XTR) OnTimer(arg runtime.TimerArg) {
	switch arg.Kind {
	case xtrTimerSeenPrune:
		x.pruneSeen()
	case xtrTimerQueueExpiry:
		x.expireQueue(netaddr.Addr(arg.N))
	case xtrTimerProbeTick:
		x.probeTick()
	case xtrTimerTelemetry:
		x.telemetryTick()
	}
}

// armSeenPrune schedules one pruning pass, if pruning is enabled and none
// is outstanding. The timer re-arms only while records remain, so an idle
// simulation's event queue still drains.
func (x *XTR) armSeenPrune() {
	if x.seenTTL <= 0 || x.seenArmed {
		return
	}
	x.seenArmed = true
	x.rt.ScheduleTimer(x.seenTTL, x, runtime.TimerArg{Kind: xtrTimerSeenPrune})
}

// pruneSeen drops first-packet flow records older than seenTTL, re-arming
// while any remain.
func (x *XTR) pruneSeen() {
	x.seenArmed = false
	now := x.rt.Now()
	for fk, last := range x.seenSources {
		if now-last >= x.seenTTL {
			delete(x.seenSources, fk)
		}
	}
	if len(x.seenSources) > 0 {
		x.armSeenPrune()
	}
}

// InterceptFrame encapsulates packets leaving the site toward remote
// EIDs. Anything else passes through to normal forwarding. It is the
// host-registered frame sniffer; the outer addresses are peeked straight
// from the wire bytes so the hot path decodes no layers.
func (x *XTR) InterceptFrame(data []byte) runtime.Verdict {
	dst, ok := packet.PeekIPv4Dst(data)
	if !ok {
		return runtime.VerdictPass
	}
	if !x.cfg.EIDSpace.Contains(dst) || x.cfg.LocalEIDs.Contains(dst) {
		return runtime.VerdictPass // transit or intra-site traffic
	}
	src, _ := packet.PeekIPv4Src(data)
	if !x.cfg.LocalEIDs.Contains(src) {
		// EID-destined but not sourced here: without a mapping this is
		// unroutable; treat like a miss-policy packet from elsewhere.
		x.met.NonEIDForwarded.Inc()
	}
	x.handleOutbound(src, dst, data)
	return runtime.VerdictConsume
}

func (x *XTR) handleOutbound(src, dst netaddr.Addr, data []byte) {
	fk := FlowKey{Src: src, Dst: dst}
	// Per-flow mapping (PCE 4-tuple) takes precedence: it carries the
	// engineered source RLOC. The RLOC pair is immutable for a slot's
	// lifetime, so its outer-header template needs no invalidation — it
	// is built on the first packet and reused until the slot dies.
	if i, ok := x.Flows.lookupSlot(fk); ok {
		x.met.FlowMappingsUsed.Inc()
		if x.disableFastPath {
			fe := &x.Flows.vals[i]
			x.encap(fe.SrcRLOC, fe.DstRLOC, data)
			return
		}
		f := &x.Flows.fast[i]
		if f.tmpl == nil {
			fe := &x.Flows.vals[i]
			f.tmpl = packet.NewEncapTemplate(fe.SrcRLOC, fe.DstRLOC, packet.PortLISPData, packet.PortLISPData)
			f.out = x.host.EgressByAddr(fe.SrcRLOC)
		}
		x.encapFast(f.tmpl, f.out, data)
		return
	}
	if e, ok := x.Cache.Lookup(dst); ok {
		// Established-flow fast path: while the entry and its locator
		// generation match the pin, SelectLocator would return the same
		// locator (the memo is deterministic per flow hash), so the pinned
		// template produces bit-identical packets to the slow path.
		if !x.disableFastPath {
			if p, ok := x.pins[fk]; ok && p.entry == e && p.gen == e.gen {
				x.encapFast(p.tmpl, p.out, data)
				return
			}
		}
		h := packet.NewFlow(packet.NewIPv4Endpoint(src), packet.NewIPv4Endpoint(dst)).FastHash()
		loc, usable := e.SelectLocator(h)
		if !usable {
			delete(x.pins, fk)
			x.dropOnMiss(dst, data)
			return
		}
		if !x.disableFastPath {
			x.pinFlow(fk, e, loc.Addr)
		}
		x.encap(x.cfg.RLOC, loc.Addr, data)
		return
	}
	x.dropOnMiss(dst, data)
}

// pinFlow records the flow's encap choice for the fast path.
func (x *XTR) pinFlow(fk FlowKey, e *MapEntry, dstRLOC netaddr.Addr) {
	if len(x.pins) >= maxFlowPins {
		clear(x.pins)
	}
	x.pins[fk] = flowPin{
		entry: e,
		gen:   e.gen,
		tmpl:  packet.NewEncapTemplate(x.cfg.RLOC, dstRLOC, packet.PortLISPData, packet.PortLISPData),
		out:   x.host.EgressByAddr(x.cfg.RLOC),
	}
}

// encapFast is the template encap: write the pinned outer header in front
// of inner — in inner's own tail-room when the host left it any, counted
// in EncapCopies when not — patch lengths, checksums and a fresh nonce,
// and steer out the pinned egress. It consumes exactly one Rand draw per
// packet, like the slow path, so runs with and without established pins
// stay byte-identical.
func (x *XTR) encapFast(t *packet.EncapTemplate, out runtime.Egress, inner []byte) {
	x.met.EncapPackets.Inc()
	if cap(inner) < packet.EncapTemplateLen+len(inner) { // Encap's own test, negated
		x.met.EncapCopies.Inc()
	}
	nonce := uint32(x.rt.Rand().Uint32()) & 0xffffff
	data := t.Encap(inner, nonce)
	if out != nil {
		x.host.OutputVia(out, data)
		return
	}
	x.host.Output(data)
}

// dropOnMiss applies the miss policy and triggers resolution.
func (x *XTR) dropOnMiss(dst netaddr.Addr, data []byte) {
	switch x.cfg.MissPolicy {
	case MissQueue:
		q := x.queue[dst]
		if len(q) >= x.cfg.QueueCapPerEID {
			x.met.QueueOverflows.Inc()
		} else {
			deadline := x.rt.Now() + x.cfg.QueueTimeout
			// data is a sniffed frame: the host may reuse its bytes once
			// the sniffer returns (the overlay host does), so the queue
			// keeps a copy.
			x.queue[dst] = append(q, queuedPacket{data: bytes.Clone(data), deadline: deadline})
			x.met.QueuedPackets.Inc()
			if !x.queueTimer[dst] {
				x.armQueueExpiry(dst, deadline)
			}
		}
	default:
		x.met.CacheMissDrops.Inc()
	}
	x.startResolution(dst)
}

// armQueueExpiry schedules the single outstanding expiry timer for dst's
// queue at the given absolute deadline.
func (x *XTR) armQueueExpiry(dst netaddr.Addr, at runtime.Time) {
	x.queueTimer[dst] = true
	x.rt.TimerAt(at, x, runtime.TimerArg{Kind: xtrTimerQueueExpiry, N: int64(dst)})
}

// expireQueue drops timed-out packets for dst and re-arms the timer at
// the new head-of-queue deadline if packets remain. Queues are FIFO with
// a uniform timeout, so the head always holds the earliest deadline.
func (x *XTR) expireQueue(dst netaddr.Addr) {
	delete(x.queueTimer, dst)
	q := x.queue[dst]
	if len(q) == 0 {
		delete(x.queue, dst)
		return
	}
	now := x.rt.Now()
	kept := q[:0]
	for _, qp := range q {
		if qp.deadline > now {
			kept = append(kept, qp)
		} else {
			x.met.QueueTimeouts.Inc()
		}
	}
	if len(kept) == 0 {
		delete(x.queue, dst)
		return
	}
	x.queue[dst] = kept
	x.armQueueExpiry(dst, kept[0].deadline)
}

func (x *XTR) startResolution(dst netaddr.Addr) {
	if x.cfg.Resolver == nil || x.resolving[dst] {
		return
	}
	if x.Cache.HasNegative(dst) {
		x.met.ResolutionsSuppressed.Inc()
		return
	}
	x.resolving[dst] = true
	x.met.ResolutionsStarted.Inc()
	started := x.rt.Now()
	x.rec.Record(obs.Event{
		At: x.rt.Now(), Kind: obs.KMapRequest, Node: x.HostName(),
		EID: netaddr.PrefixFrom(dst, 32),
	})
	x.cfg.Resolver.Resolve(dst, func(entry *MapEntry, ok bool) {
		delete(x.resolving, dst)
		x.met.ResolutionSeconds.Observe(float64(x.rt.Now()-started) / float64(time.Second))
		if entry != nil && entry.Negative {
			// Authoritative "no such EID": cache the negative answer so
			// repeated misses stop re-triggering resolution.
			x.met.ResolutionsFailed.Inc()
			x.Cache.InsertNegative(dst, x.cfg.NegativeTTL)
			x.rec.Record(obs.Event{
				At: x.rt.Now(), Kind: obs.KMapReply, Node: x.HostName(),
				EID: netaddr.PrefixFrom(dst, 32), Note: "negative",
			})
			return
		}
		if !ok || entry == nil {
			// Transient failure (timeout, loss): no negative caching —
			// the next packet retries, as a real ITR would.
			x.met.ResolutionsFailed.Inc()
			return
		}
		x.rec.Record(obs.Event{
			At: x.rt.Now(), Kind: obs.KMapReply, Node: x.HostName(),
			EID: entry.EIDPrefix,
		})
		if !x.InstallMapping(entry) {
			x.met.ResolutionsFailed.Inc()
		}
	})
}

// InstallMapping inserts a prefix mapping into the cache and replays any
// packets queued for EIDs it covers. It reports false — installing
// nothing — for entries with no locators or a prefix shorter than the
// configured overclaim floor: every install path (resolution answers,
// PCE pushes) funnels through here, so a crafted reply cannot plant an
// unusable or hijacking covering entry.
func (x *XTR) InstallMapping(entry *MapEntry) bool {
	if len(entry.Locators) == 0 || entry.EIDPrefix.Bits() < x.cfg.OverclaimFloor {
		x.met.MappingsRejected.Inc()
		x.rec.Record(obs.Event{
			At: x.rt.Now(), Kind: obs.KMappingReject, Node: x.HostName(),
			EID: entry.EIDPrefix, Note: rejectReason(entry, x.cfg.OverclaimFloor),
		})
		return false
	}
	ttl := uint32(0)
	if entry.Expires != 0 {
		remaining := entry.Expires - x.rt.Now()
		if remaining <= 0 {
			return false
		}
		ttl = uint32(remaining / runtime.Time(time.Second))
		if ttl == 0 {
			ttl = 1
		}
	}
	e := x.Cache.Insert(entry.EIDPrefix, entry.Locators, ttl)
	x.rec.Record(obs.Event{
		At: x.rt.Now(), Kind: obs.KMappingInstall, Node: x.HostName(),
		EID: entry.EIDPrefix,
	})
	for dst, q := range x.queue {
		if !entry.EIDPrefix.Contains(dst) {
			continue
		}
		delete(x.queue, dst)
		for _, qp := range q {
			src, _ := packet.PeekIPv4Src(qp.data)
			h := packet.NewFlow(packet.NewIPv4Endpoint(src), packet.NewIPv4Endpoint(dst)).FastHash()
			if loc, usable := e.SelectLocator(h); usable {
				x.met.Replayed.Inc()
				x.encap(x.cfg.RLOC, loc.Addr, qp.data)
			} else {
				x.met.QueueTimeouts.Inc()
			}
		}
	}
	return true
}

// rejectReason names which hardening check refused the entry.
func rejectReason(entry *MapEntry, floor int) string {
	if len(entry.Locators) == 0 {
		return "no-locators"
	}
	return "overclaim-floor"
}

// InstallFlow installs a per-flow 4-tuple (the PCE step-7b push) and
// replays queued packets for its destination.
func (x *XTR) InstallFlow(srcEID, dstEID, srcRLOC, dstRLOC netaddr.Addr, ttl uint32) {
	x.Flows.Insert(FlowKey{Src: srcEID, Dst: dstEID}, srcRLOC, dstRLOC, ttl)
	q := x.queue[dstEID]
	if len(q) == 0 {
		return
	}
	kept := q[:0]
	for _, qp := range q {
		src, _ := packet.PeekIPv4Src(qp.data)
		if src == srcEID {
			x.met.Replayed.Inc()
			x.encap(srcRLOC, dstRLOC, qp.data)
		} else {
			kept = append(kept, qp)
		}
	}
	if len(kept) == 0 {
		delete(x.queue, dstEID)
	} else {
		x.queue[dstEID] = kept
	}
}

// encap wraps data in outer IPv4/UDP/LISP and sends it. When this router
// owns the source RLOC on one of its own uplinks, the packet leaves
// through that uplink — source-based egress steering, which is how a
// multihomed xTR realizes the IRC engine's egress choice. A source RLOC
// owned by a sibling xTR just gets stamped: the packet leaves via the
// default route and only the *return* path shifts (the paper's
// independent one-way tunnels).
func (x *XTR) encap(srcRLOC, dstRLOC netaddr.Addr, inner []byte) {
	x.met.EncapPackets.Inc()
	x.encIP = packet.IPv4{
		TTL: packet.DefaultTTL, Protocol: packet.IPProtocolUDP,
		SrcIP: srcRLOC, DstIP: dstRLOC,
	}
	x.encUDP = packet.UDP{SrcPort: packet.PortLISPData, DstPort: packet.PortLISPData}
	x.encUDP.SetNetworkLayerForChecksum(&x.encIP)
	x.encLISP = packet.LISP{NonceP: true, Nonce: uint32(x.rt.Rand().Uint32()) & 0xffffff}
	x.encPayload = packet.Payload(inner)
	x.encLayers = [4]packet.SerializableLayer{&x.encIP, &x.encUDP, &x.encLISP, &x.encPayload}
	data := packet.Serialize(x.encLayers[:]...)
	if out := x.host.EgressByAddr(srcRLOC); out != nil {
		x.host.OutputVia(out, data)
		return
	}
	x.host.Output(data)
}

// gleanAllowed consumes one slot of the per-second new-flow gleaning
// budget (always true when GleanRateLimit is 0).
func (x *XTR) gleanAllowed() bool {
	if x.cfg.GleanRateLimit <= 0 {
		return true
	}
	w := x.rt.Now() / runtime.Time(time.Second)
	if w != x.gleanWin {
		x.gleanWin, x.gleanCount = w, 0
	}
	if x.gleanCount >= x.cfg.GleanRateLimit {
		return false
	}
	x.gleanCount++
	return true
}

// DecapInfo describes one decapsulated packet for the OnDecap hook: the
// inner EID pair and the outer RLOC pair. First marks the first packet of
// the (inner src, inner dst) flow seen at this ETR — the trigger for the
// paper's reverse-mapping multicast.
type DecapInfo struct {
	InnerSrc, InnerDst netaddr.Addr
	OuterSrc, OuterDst netaddr.Addr
	First              bool
}

// DecapFrame handles inbound tunneled packets on UDP 4341: strip the
// outer headers, learn the reverse mapping, forward the inner packet into
// the site. It is registered as the host's raw UDP handler, so the
// per-packet hot path never decodes outer layer structs — the outer
// addresses it needs are peeked straight from the wire bytes of the outer
// frame.
func (x *XTR) DecapFrame(outer []byte, payload []byte) {
	if len(payload) < packet.LISPHeaderLen {
		return
	}
	inner := payload[packet.LISPHeaderLen:]
	innerDst, ok := packet.PeekIPv4Dst(inner)
	if !ok || !x.cfg.LocalEIDs.Contains(innerDst) {
		return // not ours; a real ETR would ICMP, the sim just drops
	}
	x.met.DecapPackets.Inc()
	innerSrc, _ := packet.PeekIPv4Src(inner)
	if x.OnDecap != nil {
		fk := FlowKey{Src: innerSrc, Dst: innerDst}
		_, seen := x.seenSources[fk]
		if !seen && !x.gleanAllowed() {
			// Rate-limited: forward the inner packet but glean no state
			// for this new flow — it retries on its next packet.
			x.met.GleansSuppressed.Inc()
			x.rec.Record(obs.Event{
				At: x.rt.Now(), Kind: obs.KDefenseReject, Node: x.HostName(),
				EID: netaddr.PrefixFrom(innerSrc, 32), Note: "glean-rate-limit",
			})
			x.host.Output(inner)
			return
		}
		outerSrc, _ := packet.PeekIPv4Src(outer)
		outerDst, _ := packet.PeekIPv4Dst(outer)
		x.seenSources[fk] = x.rt.Now()
		x.armSeenPrune()
		x.OnDecap(DecapInfo{
			InnerSrc: innerSrc, InnerDst: innerDst,
			OuterSrc: outerSrc, OuterDst: outerDst,
			First: !seen,
		})
	}
	// Send the inner bytes in place: they alias the delivered outer
	// packet, but nothing re-reads the outer bytes after decap, and the
	// Delivery contract lets handlers keep Data bytes (only the Delivery
	// and its decoded view are recycled). The forwarding path's in-place
	// TTL patch touches bytes nobody else reads, so the copy the original
	// implementation made bought nothing.
	x.host.Output(inner)
}
