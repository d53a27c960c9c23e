// Package experiments builds and runs the evaluation the paper implies:
// the quantified versions of its three claims and the comparisons against
// the control planes it cites. Every experiment produces paper-style
// tables; cmd/experiments prints them and the repository benchmark
// (bench/, workload sim_suite) times their regeneration.
//
// The shared harness builds a multihomed LISP internet (internal/topo),
// deploys one control plane across every domain — ALT, CONS, MS/MR, NERD,
// the paper's PCE-CP, or an idealized "preinstalled" reference — and runs
// instrumented flows (iterative DNS lookup, TCP handshake with RFC 6298
// retransmission, then data) while recording when mappings become usable
// at the ITRs.
//
// Execution is organized as a parallel scenario engine: every experiment
// decomposes into independent cells (one world, one simulation each; see
// Cell and Experiment.Build), which internal/runner fans across
// GOMAXPROCS workers. Because results merge in canonical cell order, a
// parallel run renders byte-identical tables to a serial run of the same
// seed.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"github.com/pcelisp/pcelisp/internal/core"
	"github.com/pcelisp/pcelisp/internal/irc"
	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/mapsys"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/obs"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/simnet"
	"github.com/pcelisp/pcelisp/internal/topo"
	"github.com/pcelisp/pcelisp/internal/workload"
)

// CP names a control plane under test.
type CP string

// The control planes.
const (
	// CPPreinstalled is the idealized reference: every mapping preloaded
	// everywhere, so flows pay only tunneling. It bounds what any control
	// plane can achieve.
	CPPreinstalled CP = "ideal"
	// CPALT is the LISP+ALT overlay.
	CPALT CP = "ALT"
	// CPCONS is the LISP+CONS hierarchy.
	CPCONS CP = "CONS"
	// CPMSMR is the map-server/map-resolver infrastructure.
	CPMSMR CP = "MS/MR"
	// CPNERD is the push database.
	CPNERD CP = "NERD"
	// CPPCE is the paper's PCE-based control plane.
	CPPCE CP = "PCE-CP"
)

// AllCPs lists the control planes in canonical table order.
var AllCPs = []CP{CPPreinstalled, CPALT, CPCONS, CPMSMR, CPNERD, CPPCE}

// comparisonCPs is AllCPs minus the preinstalled reference — the set the
// overhead and readiness comparisons (E3, E5) sweep.
var comparisonCPs = []CP{CPALT, CPCONS, CPMSMR, CPNERD, CPPCE}

// authKey authenticates registrations in every deployment.
var authKey = []byte("pcelisp-experiments")

// replySignKey is the per-plane mapping-signature key provisioned when a
// world's defense profile enables SignReplies, and pcecpKey the PCECP
// channel key under PCEAuth. The E13 attacker holds neither.
var (
	replySignKey = []byte("pcelisp-reply-plane")
	pcecpKey     = []byte("pcelisp-pcecp-plane")
)

// WorldConfig shapes a harness world.
type WorldConfig struct {
	// CP selects the control plane.
	CP CP
	// Domains, HostsPerDomain, Providers shape the internet.
	Domains        int
	HostsPerDomain int
	Providers      int
	// MissPolicy applies to every ITR.
	MissPolicy lisp.MissPolicy
	// CacheCapacity bounds every ITR map-cache (0 = unbounded) and
	// CachePolicy selects its eviction policy ("" = LRU) — the cache
	// pressure axis experiment E9 sweeps.
	CacheCapacity int
	CachePolicy   string
	// Seed drives all randomness.
	Seed int64
	// CoreDelayMin/Max bound provider-core delays.
	CoreDelayMin, CoreDelayMax time.Duration
	// SplitXTRs builds one xTR per provider instead of one multihomed.
	SplitXTRs bool
	// CapacityBps rate-limits provider links (0 = unlimited).
	CapacityBps int64
	// Policy is the IRC policy for PCE domains (default MinLatency).
	Policy irc.Policy
	// PCEDomains restricts PCE deployment to these domain indexes
	// (nil = all); used by the interop/fallback ablations.
	PCEDomains []int
	// FallbackMSMR additionally deploys MS/MR as the underlying mapping
	// system ITRs fall back to (E8).
	FallbackMSMR bool
	// DNSRecordTTL overrides host record TTLs.
	DNSRecordTTL uint32
	// MappingTTL overrides the mapping lifetime in seconds for every
	// control plane (0 = the 300s default): site record TTLs for the
	// pull planes, push TTLs for the PCE. The failure experiment E10
	// shortens it to give pull-based reconvergence a finite horizon.
	MappingTTL uint32
	// NERDPoll overrides the NERD authority poll interval (0 = 60s).
	NERDPoll time.Duration
	// WatchSites starts a mapsys.LocatorWatch per baseline/NERD site,
	// flipping advertised R bits from provider link state and refreshing
	// the mapping system (keeps the event queue alive forever; use
	// bounded run windows).
	WatchSites bool
	// SiteWeights sets the initial advertised locator weights, indexed
	// by provider (nil = the equal split). It shapes the starting
	// traffic split every control plane announces — the congestion
	// experiment E11 starts some scenarios from a deliberately skewed
	// vector.
	SiteWeights []uint8
	// Shards partitions the world into lock-step simulation shards
	// (0 = the package default set by SetWorldShards, itself defaulting
	// to 1). Experiment output is byte-identical for every shard count.
	Shards int
	// Defenses selects the control-plane defense profile the adversarial
	// experiment E13 sweeps. The zero value leaves every layer in its
	// historical default (strict nonces, no signatures, no floors, no
	// quotas) — byte-identical to pre-E13 worlds.
	Defenses DefenseConfig
	// Recorder captures control-plane flight events from every xTR and
	// PCE in the world (nil = the package default set by
	// SetWorldRecorder, itself defaulting to off). Recording never draws
	// from the simulation RNG or timers, so experiment output is
	// byte-identical with it on or off.
	Recorder *obs.FlightRecorder
	// Obs registers every component's counters (map-cache, xTR, PCE,
	// mapping systems) in one registry, labeled by node name. Series
	// names collide across worlds (node names repeat), so a registry
	// serves at most one world — there is deliberately no package-wide
	// default. Nil leaves components on private orphan cells.
	Obs *obs.Registry
}

// DefenseConfig turns individual control-plane defense layers on or off.
type DefenseConfig struct {
	// SloppyNonce reverts requesters to pre-RFC-6830 permissiveness:
	// positive replies are matched by EID when the nonce misses, and
	// unsolicited positive replies are gleaned straight into the ITR
	// caches — the exposure profile the off-path attacker needs.
	SloppyNonce bool
	// SignReplies provisions the per-plane reply signing key: every
	// mapping-system responder (ETRs, MS negatives, ALT root, CONS
	// routers, the NERD authority) signs and every requester/poller
	// verifies.
	SignReplies bool
	// PCEAuth provisions the PCECP channel key: PCEs and their xTRs sign
	// every push and reject unverified port-P traffic.
	PCEAuth bool
	// OverclaimFloor rejects installed mappings with prefixes shorter
	// than this many bits at every ITR (0 = off).
	OverclaimFloor int
	// GleanRateLimit bounds per-ETR data-plane gleaning per second
	// (0 = off).
	GleanRateLimit int
	// ResolverServiceRate bounds the Map-Resolver (and PCED MapFetch)
	// service to this many requests per second (0 = infinite).
	ResolverServiceRate int
	// ResolverQueueCap bounds the service backlog (0 = default 64).
	ResolverQueueCap int
	// SourceQuota caps resolution requests per source per second in
	// front of the service queue (0 = off).
	SourceQuota int
}

// worldShards is the package-wide default shard count applied when a
// WorldConfig leaves Shards zero — how the -shards flag and the
// determinism tests re-shard every experiment without threading a
// parameter through each cell builder.
var worldShards = 1

// SetWorldShards sets the default shard count for subsequently built
// worlds and returns the previous value. Not safe concurrently with
// world construction; intended for test setup and cmd flag parsing.
func SetWorldShards(n int) int {
	prev := worldShards
	if n < 1 {
		n = 1
	}
	worldShards = n
	return prev
}

// worldRecorder is the package-wide default flight recorder applied when
// a WorldConfig leaves Recorder nil — how the determinism tests (and any
// debugging session) arm recording across every experiment without
// threading a parameter through each cell builder. A single recorder is
// safe to share across concurrently built worlds: Record is
// mutex-guarded and never registers names.
var worldRecorder *obs.FlightRecorder

// SetWorldRecorder sets the default flight recorder for subsequently
// built worlds and returns the previous value (nil = recording off).
// Not safe concurrently with world construction; intended for test
// setup and cmd flag parsing.
func SetWorldRecorder(rec *obs.FlightRecorder) *obs.FlightRecorder {
	prev := worldRecorder
	worldRecorder = rec
	return prev
}

func (c *WorldConfig) fill() {
	if c.Domains == 0 {
		c.Domains = 2
	}
	if c.HostsPerDomain == 0 {
		c.HostsPerDomain = 2
	}
	if c.Providers == 0 {
		c.Providers = 2
	}
	if c.Policy == nil {
		c.Policy = irc.MinLatency{}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards == 0 {
		c.Shards = worldShards
	}
	if c.Recorder == nil {
		c.Recorder = worldRecorder
	}
}

// World is a built harness world.
type World struct {
	Cfg WorldConfig
	In  *topo.Internet
	// Sharded coordinates the world's lock-step shards; all run control
	// goes through the World wrappers (RunFor/RunUntil/Run/At) so a
	// driver works unchanged at any shard count.
	Sharded *simnet.ShardedSim
	// Sim is shard 0 — where the core, the DNS/mapping infrastructure
	// and domain 0 live. Drivers may schedule directly on it only for
	// work that touches shard-0 state exclusively.
	Sim *simnet.Sim

	// PCEs holds one PCE per domain under CPPCE (nil entries where the
	// domain is PCE-less).
	PCEs []*core.PCE
	// ALT/CONS/MSMR/NERD hold the baseline deployment when active.
	ALT  *mapsys.ALT
	CONS *mapsys.CONS
	MSMR *mapsys.MSMR
	NERD *mapsys.NERDSystem

	// TCP holds per-domain, per-host TCP endpoints; every host listens on
	// port 80.
	TCP [][]*workload.TCPHost

	// Sites holds the per-domain mapping-system site records under the
	// baseline and NERD control planes (nil entries otherwise) — the
	// failure experiments mutate their locator R bits through watches.
	Sites []*mapsys.Site

	// Requesters holds the per-domain ITR-side requesters under the
	// baseline control planes (nil entries otherwise), and Pollers the
	// per-domain NERD pollers — the adversarial experiment reads their
	// defense counters.
	Requesters []*mapsys.Requester
	Pollers    [][]*mapsys.NERDPoller

	// readyMu guards mappingReady/prefixReady: readiness is reported
	// from whichever shard hosts the acting node, concurrently during an
	// epoch.
	readyMu sync.Mutex
	// mappingReady records, per destination EID, when a usable mapping
	// first became installable at a source ITR (resolver completion or
	// PCE push).
	mappingReady map[netaddr.Addr]simnet.Time
	// prefixReady records prefix-granularity readiness (NERD pushes).
	prefixReady *netaddr.Trie[simnet.Time]
}

// timingResolver wraps a baseline resolver to record completion times.
// sim is the shard hosting the domain's xTRs — completion callbacks run
// on its event loop, so its clock (not shard 0's) stamps readiness.
type timingResolver struct {
	inner lisp.Resolver
	w     *World
	sim   *simnet.Sim
}

// Resolve implements lisp.Resolver.
func (t *timingResolver) Resolve(eid netaddr.Addr, done func(*lisp.MapEntry, bool)) {
	t.inner.Resolve(eid, func(e *lisp.MapEntry, ok bool) {
		if ok {
			t.w.markReadyAt(eid, t.sim.Now())
		}
		done(e, ok)
	})
}

// markReadyAt records when eid's mapping first became usable. Keeping
// the minimum reported time (not the first caller's) makes the record
// independent of cross-shard callback interleaving: within one shard
// time is monotone, so min-time equals first-write exactly as in a
// single-Sim world.
func (w *World) markReadyAt(eid netaddr.Addr, at simnet.Time) {
	w.readyMu.Lock()
	if prev, seen := w.mappingReady[eid]; !seen || at < prev {
		w.mappingReady[eid] = at
	}
	w.readyMu.Unlock()
}

// MappingReadyAt returns when eid's mapping first became usable.
func (w *World) MappingReadyAt(eid netaddr.Addr) (simnet.Time, bool) {
	w.readyMu.Lock()
	defer w.readyMu.Unlock()
	if at, ok := w.mappingReady[eid]; ok {
		return at, true
	}
	at, _, ok := w.prefixReady.Lookup(eid)
	return at, ok
}

// BuildWorld constructs the internet and deploys the selected control
// plane.
func BuildWorld(cfg WorldConfig) *World {
	cfg.fill()
	spec := topo.Spec{
		Seed:         cfg.Seed,
		Shards:       cfg.Shards,
		CoreDelayMin: cfg.CoreDelayMin,
		CoreDelayMax: cfg.CoreDelayMax,
		DNSRecordTTL: cfg.DNSRecordTTL,
		Obs:          cfg.Obs,
		Recorder:     cfg.Recorder,
	}
	for i := 0; i < cfg.Domains; i++ {
		spec.Domains = append(spec.Domains, topo.DomainSpec{
			Hosts:               cfg.HostsPerDomain,
			Providers:           cfg.Providers,
			MissPolicy:          cfg.MissPolicy,
			CacheCapacity:       cfg.CacheCapacity,
			CachePolicy:         cfg.CachePolicy,
			SplitXTRs:           cfg.SplitXTRs,
			ProviderCapacityBps: cfg.CapacityBps,
			OverclaimFloor:      cfg.Defenses.OverclaimFloor,
			GleanRateLimit:      cfg.Defenses.GleanRateLimit,
		})
	}
	in := topo.Build(spec)
	w := &World{
		Cfg: cfg, In: in, Sharded: in.Sharded, Sim: in.Sim,
		PCEs:         make([]*core.PCE, cfg.Domains),
		Sites:        make([]*mapsys.Site, cfg.Domains),
		Requesters:   make([]*mapsys.Requester, cfg.Domains),
		Pollers:      make([][]*mapsys.NERDPoller, cfg.Domains),
		mappingReady: make(map[netaddr.Addr]simnet.Time),
		prefixReady:  netaddr.NewTrie[simnet.Time](),
	}

	switch cfg.CP {
	case CPPreinstalled:
		w.preinstallAll()
	case CPALT:
		w.ALT = mapsys.BuildALT(in.Sim, overlayConfigFor(cfg, in))
		if cfg.Defenses.SignReplies {
			w.ALT.ReplySignKey = replySignKey
		}
		w.attachBaseline(w.ALT)
	case CPCONS:
		w.CONS = mapsys.BuildCONS(in.Sim, overlayConfigFor(cfg, in))
		if cfg.MappingTTL > 0 {
			// Overlay answer caches must not outlive the site TTL, or a
			// re-resolution after expiry gets the stale cached record.
			w.CONS.CacheTTL = time.Duration(cfg.MappingTTL) * time.Second
		}
		if cfg.Defenses.SignReplies {
			w.CONS.ReplySignKey = replySignKey
		}
		w.attachBaseline(w.CONS)
	case CPMSMR:
		w.MSMR = w.buildMSMR()
		w.attachBaseline(w.MSMR)
	case CPNERD:
		authNode, authAddr := w.addInfraNode("nerd-authority", 50, 15*time.Millisecond)
		authority := mapsys.NewNERD(authNode, authAddr, authKey)
		authority.PollInterval = 60 * time.Second
		if cfg.NERDPoll > 0 {
			authority.PollInterval = cfg.NERDPoll
		}
		if cfg.Defenses.SignReplies {
			authority.ReplySignKey = replySignKey
		}
		w.NERD = mapsys.NewNERDSystem(authority, authKey)
		for _, d := range in.Domains {
			// NERD records are database rows, not cache entries: they
			// live until a version update replaces them, so the record
			// TTL is immortal and staleness is bounded by polling.
			site := siteFor(d, 0, cfg.SiteWeights)
			site.TTL = 0
			w.Sites[d.Index] = site
			w.NERD.AttachSite(site)
			w.watchSite(w.NERD, d, site)
			for _, x := range d.XTRs {
				p := w.NERD.WireXTR(x)
				w.Pollers[d.Index] = append(w.Pollers[d.Index], p)
				if cfg.Defenses.SignReplies {
					p.VerifyKey = replySignKey
				}
				xs := d.Router.Sim() // install callbacks run on the domain's shard
				p.OnInstall = func(prefix netaddr.Prefix) {
					at := xs.Now()
					w.readyMu.Lock()
					if prev, _, seen := w.prefixReady.Lookup(prefix.Addr()); !seen || at < prev {
						w.prefixReady.Insert(prefix, at)
					}
					w.readyMu.Unlock()
				}
			}
		}
	case CPPCE:
		if cfg.FallbackMSMR {
			w.MSMR = w.buildMSMR()
			w.attachBaseline(w.MSMR)
		}
		deployOn := cfg.PCEDomains
		if deployOn == nil {
			for i := range in.Domains {
				deployOn = append(deployOn, i)
			}
		}
		opts := core.DeployOptions{
			MappingTTL:       cfg.MappingTTL,
			FetchServiceRate: cfg.Defenses.ResolverServiceRate,
			FetchQueueCap:    cfg.Defenses.ResolverQueueCap,
			FetchQuotaLimit:  cfg.Defenses.SourceQuota,
			Obs:              cfg.Obs,
			Recorder:         cfg.Recorder,
		}
		if cfg.Defenses.PCEAuth {
			opts.AuthKey = pcecpKey
		}
		for _, i := range deployOn {
			pce := core.DeployDomainOpts(in.Domains[i], cfg.Policy, opts)
			pce.OnEvent = w.pceEvent
			w.PCEs[i] = pce
		}
	default:
		panic(fmt.Sprintf("experiments: unknown CP %q", cfg.CP))
	}

	// TCP endpoints everywhere; every host serves port 80.
	for _, d := range in.Domains {
		var hosts []*workload.TCPHost
		for _, h := range d.Hosts {
			th := workload.NewTCPHost(h.Node, h.Addr)
			th.Listen(80)
			hosts = append(hosts, th)
		}
		w.TCP = append(w.TCP, hosts)
	}
	return w
}

func (w *World) pceEvent(ev core.Event) {
	if ev.Kind == core.EvFlowInstalled || ev.Kind == core.EvMappingPushed {
		w.markReadyAt(ev.DstEID, ev.At)
	}
}

// overlayConfigFor sizes the ALT/CONS tree to the domain count.
func overlayConfigFor(cfg WorldConfig, in *topo.Internet) mapsys.OverlayConfig {
	depth := 1
	for leaves := 4; leaves < cfg.Domains && depth < 6; leaves *= 4 {
		depth++
	}
	return mapsys.OverlayConfig{
		Branching:    4,
		Depth:        depth,
		LinkDelay:    20 * time.Millisecond,
		TunnelDelay:  10 * time.Millisecond,
		NativeUplink: in.Core,
	}
}

// siteFor converts a topo domain to a mapping-system site with all
// providers as equal-priority locators, weighted by weights (nil = the
// equal split). ttl overrides the 300s record default when non-zero.
func siteFor(d *topo.Domain, ttl uint32, weights []uint8) *mapsys.Site {
	locs := make([]packet.LISPLocator, len(d.Providers))
	for i, p := range d.Providers {
		locs[i] = packet.LISPLocator{
			Priority: 1, Weight: siteWeight(weights, i, len(d.Providers)),
			Reachable: true, Addr: p.RLOC,
		}
	}
	if ttl == 0 {
		ttl = 300
	}
	return &mapsys.Site{
		Prefix:   d.EIDPrefix,
		Locators: locs,
		Node:     d.XTRs[0].Host().(*simnet.Node),
		Addr:     d.XTRs[0].RLOC(),
		TTL:      ttl,
		AuthKey:  authKey,
	}
}

// siteWeight returns the i-th initial locator weight: the configured
// vector when one is set, the historical equal split otherwise.
func siteWeight(weights []uint8, i, n int) uint8 {
	if i < len(weights) {
		return weights[i]
	}
	return uint8(100 / n)
}

// attachBaseline wires a pull-based mapping system into every domain.
func (w *World) attachBaseline(sys mapsys.System) {
	def := w.Cfg.Defenses
	for _, d := range w.In.Domains {
		site := siteFor(d, w.Cfg.MappingTTL, w.Cfg.SiteWeights)
		if def.SignReplies {
			site.ReplySignKey = replySignKey
		}
		w.Sites[d.Index] = site
		resolver := sys.AttachSite(site)
		w.watchSite(sys, d, site)
		if resolver == nil {
			continue
		}
		if req, ok := resolver.(*mapsys.Requester); ok {
			w.Requesters[d.Index] = req
			if def.SloppyNonce {
				req.StrictNonce = false
				xtrs := d.XTRs
				req.OnUnsolicited = func(e *lisp.MapEntry) {
					for _, x := range xtrs {
						x.InstallMapping(e)
					}
				}
			}
			if def.SignReplies {
				req.VerifyKey = replySignKey
			}
		}
		timed := &timingResolver{inner: resolver, w: w, sim: d.Router.Sim()}
		for _, x := range d.XTRs {
			x.SetResolver(timed)
		}
	}
}

// watchSite starts the site's locator watch when the world asks for one:
// the domain's border sees its own provider links die and re-announces
// the pruned locator set — remote caches still wait out their TTLs.
func (w *World) watchSite(sys mapsys.System, d *topo.Domain, site *mapsys.Site) {
	if !w.Cfg.WatchSites {
		return
	}
	ifaces := make([]*simnet.Iface, len(d.Providers))
	for i, p := range d.Providers {
		ifaces[i] = p.EgressIface
	}
	// The watch's timer must tick on the shard owning the watched ifaces
	// and the site's border node, not necessarily shard 0.
	mapsys.WatchSiteLocators(d.Router.Sim(), site, ifaces, func() { sys.RefreshSite(site) }).Start()
}

// EnableProbing turns on RLOC probing at every xTR — the PCE control
// plane's liveness layer for experiment E10 (its reports reach the PCEs
// through the hooks DeployDomain wired).
func (w *World) EnableProbing(cfg lisp.ProbeConfig) {
	for _, d := range w.In.Domains {
		for _, x := range d.XTRs {
			x.EnableProbing(cfg)
		}
	}
}

// MapSystem returns the deployed pull-based mapping system, if any —
// the handle TE tooling needs to RefreshSite after a weight change.
func (w *World) MapSystem() mapsys.System {
	switch {
	case w.ALT != nil:
		return w.ALT
	case w.CONS != nil:
		return w.CONS
	case w.MSMR != nil:
		return w.MSMR
	case w.NERD != nil:
		return w.NERD
	}
	return nil
}

// TelemetryMessages sums link-load telemetry reports across all xTRs —
// the telemetry contribution to control overhead.
func (w *World) TelemetryMessages() uint64 {
	var total uint64
	for _, d := range w.In.Domains {
		for _, x := range d.XTRs {
			total += x.Stats().TelemetryReports
		}
	}
	return total
}

// ProbeMessages sums probe control messages (probes and echoes) across
// all xTRs — the probing contribution to control overhead.
func (w *World) ProbeMessages() uint64 {
	var total uint64
	for _, d := range w.In.Domains {
		for _, x := range d.XTRs {
			total += x.Stats().ProbesSent + x.Stats().ProbeRepliesSent
		}
	}
	return total
}

func (w *World) buildMSMR() *mapsys.MSMR {
	msNode, msAddr := w.addInfraNode("map-server", 51, 12*time.Millisecond)
	mrNode, mrAddr := w.addInfraNode("map-resolver", 52, 10*time.Millisecond)
	m := mapsys.NewMSMR(msNode, msAddr, mrNode, mrAddr, authKey)
	def := w.Cfg.Defenses
	if def.SignReplies {
		m.MS.ReplySignKey = replySignKey
	}
	m.MR.ServiceRate = def.ResolverServiceRate
	m.MR.QueueCap = def.ResolverQueueCap
	if def.SourceQuota > 0 {
		m.MR.Quota = &lisp.SourceQuota{Limit: def.SourceQuota}
	}
	m.MS.RegisterMetrics(w.Cfg.Obs)
	m.MR.RegisterMetrics(w.Cfg.Obs)
	return m
}

// addInfraNode hangs an infrastructure node off the core.
func (w *World) addInfraNode(name string, octet byte, delay time.Duration) (*simnet.Node, netaddr.Addr) {
	return w.In.AttachCoreStub(name, octet, delay)
}

// preinstallAll loads every cross-domain mapping into every ITR cache.
func (w *World) preinstallAll() {
	for _, src := range w.In.Domains {
		for _, dst := range w.In.Domains {
			if src == dst {
				continue
			}
			locs := make([]packet.LISPLocator, len(dst.Providers))
			for i, p := range dst.Providers {
				locs[i] = packet.LISPLocator{Priority: 1, Weight: siteWeight(w.Cfg.SiteWeights, i, len(dst.Providers)), Reachable: true, Addr: p.RLOC}
			}
			for _, x := range src.XTRs {
				x.Cache.Insert(dst.EIDPrefix, locs, 0)
			}
		}
		for _, h := range src.Hosts {
			w.markReadyAt(h.Addr, 0) // ready at t=0 by construction
		}
	}
}

// FlowResult records one instrumented flow.
type FlowResult struct {
	// OK is true when the TCP handshake completed.
	OK bool
	// TDNS is the DNS resolution time seen by the host.
	TDNS simnet.Time
	// Setup is DNS start to TCP established.
	Setup simnet.Time
	// Handshake is TCP connect to established.
	Handshake simnet.Time
	// Retransmits counts SYN retransmissions.
	Retransmits int
	// MappingReady is DNS start to mapping availability at the source ITR
	// (-1 when it never became ready).
	MappingReady simnet.Time
	// Src and Dst identify the flow.
	Src, Dst netaddr.Addr
}

// Ratio returns the paper's (TDNS+Tmap)/TDNS metric: how far mapping
// readiness extends past DNS resolution, as a multiple of TDNS.
func (f FlowResult) Ratio() float64 {
	if f.TDNS <= 0 {
		return 0
	}
	ready := f.MappingReady
	if ready < f.TDNS {
		ready = f.TDNS // mapping was ready before DNS finished
	}
	return float64(ready) / float64(f.TDNS)
}

// StartFlow runs DNS-then-TCP from host (srcD, srcH) to host (dstD, dstH)
// and calls done exactly once.
func (w *World) StartFlow(srcD, srcH, dstD, dstH int, done func(FlowResult)) {
	src := w.In.Domains[srcD].Hosts[srcH]
	dst := w.In.Domains[dstD].Hosts[dstH]
	srcSim := src.Node.Sim() // the flow's callbacks run on the source shard
	start := srcSim.Now()
	res := FlowResult{Src: src.Addr, Dst: dst.Addr, MappingReady: -1}
	src.DNS.Lookup(dst.Name, func(addr netaddr.Addr, tdns simnet.Time, ok bool) {
		res.TDNS = tdns
		if !ok {
			done(res)
			return
		}
		w.TCP[srcD][srcH].Connect(addr, 80, func(cr workload.ConnResult) {
			res.OK = cr.OK
			res.Handshake = cr.Elapsed
			res.Retransmits = cr.Retransmits
			res.Setup = srcSim.Now() - start
			if at, ready := w.MappingReadyAt(dst.Addr); ready {
				if at < start {
					res.MappingReady = 0
				} else {
					res.MappingReady = at - start
				}
			}
			done(res)
		})
	})
}

// Settle runs the simulation long enough for registrations, announcements
// and first NERD polls to complete.
func (w *World) Settle() { w.RunFor(2 * time.Second) }

// Run-control wrappers: every driver advances the world through these so
// the same code runs at any shard count. With one shard they are thin
// passthroughs to the lone Sim.

// Now returns the world's barrier clock.
func (w *World) Now() simnet.Time { return w.Sharded.Now() }

// RunFor advances the world a span of virtual time.
func (w *World) RunFor(d simnet.Time) { w.Sharded.RunFor(d) }

// RunUntil advances the world to an absolute virtual time.
func (w *World) RunUntil(t simnet.Time) { w.Sharded.RunUntil(t) }

// Run advances the world until every shard's event queue drains.
func (w *World) Run() { w.Sharded.Run() }

// At registers a global barrier callback: fn runs once every shard has
// processed every event with timestamp <= t, making cross-shard state
// (counters, control totals) coherent to read. This is the sharded
// equivalent of "take a snapshot at time t" — and, unlike Sim.AtFunc,
// fn runs after same-instant events regardless of shard count.
func (w *World) At(t simnet.Time, fn func()) { w.Sharded.At(t, fn) }

// After registers a barrier callback a duration from the barrier clock.
func (w *World) After(d simnet.Time, fn func()) { w.Sharded.After(d, fn) }

// SimOf returns the Sim hosting domain d — where driver work touching
// only that domain's state must be scheduled.
func (w *World) SimOf(d int) *simnet.Sim { return w.In.Domains[d].Router.Sim() }

// ControlTotals reports inter-CP control traffic (messages, bytes) for
// whichever system is deployed; PCE counts its PCECP traffic.
func (w *World) ControlTotals() (msgs, bytes uint64) {
	var cs mapsys.ControlStats
	switch {
	case w.ALT != nil:
		cs = w.ALT.ControlTotals()
	case w.CONS != nil:
		cs = w.CONS.ControlTotals()
	case w.MSMR != nil:
		cs = w.MSMR.ControlTotals()
	case w.NERD != nil:
		cs = w.NERD.ControlTotals()
	}
	msgs, bytes = cs.TxMessages, cs.TxBytes
	for _, pce := range w.PCEs {
		if pce != nil {
			msgs += pce.Stats().TxControlMessages
			bytes += pce.Stats().TxControlBytes
		}
	}
	return msgs, bytes
}

// ITRStateEntries sums mapping state (cache + flow entries) across all
// ITRs.
func (w *World) ITRStateEntries() int {
	total := 0
	for _, d := range w.In.Domains {
		for _, x := range d.XTRs {
			total += x.Cache.Len() + x.Flows.Len()
		}
	}
	return total
}

// ITRDrops sums miss-policy losses across all ITRs.
func (w *World) ITRDrops() uint64 {
	var total uint64
	for _, d := range w.In.Domains {
		for _, x := range d.XTRs {
			total += x.Stats().CacheMissDrops + x.Stats().QueueTimeouts + x.Stats().QueueOverflows
		}
	}
	return total
}
