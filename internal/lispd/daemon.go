package lispd

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/pcelisp/pcelisp/internal/core"
	"github.com/pcelisp/pcelisp/internal/irc"
	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/obs"
	"github.com/pcelisp/pcelisp/internal/overlay"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// Daemon is one running lispd instance: a runtime.Loop driving the
// protocol state machines over an overlay.Host socket. The same xTR and
// PCE code that runs under the deterministic simulator runs here — the
// daemon only assembles and configures it.
type Daemon struct {
	cfg  *Config
	loop *runtime.Loop
	host *overlay.Host

	xtr    *lisp.XTR
	pce    *core.PCE
	engine *irc.Engine
	fe     *dnsFrontEnd

	reg   *obs.Registry
	rec   *obs.FlightRecorder
	admin *adminServer // nil unless cfg.Admin is set

	mu      sync.Mutex
	started bool
	closed  bool
}

// New validates cfg and assembles a daemon. Nothing runs until Start.
func New(cfg *Config) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	loop := runtime.NewLoop(seed)
	host, err := overlay.New(cfg.Name, loop, cfg.Listen)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:  cfg,
		loop: loop,
		host: host,
		reg:  obs.NewRegistry(),
		rec:  obs.NewFlightRecorder(obs.DefaultRingSize),
	}
	host.RegisterMetrics(d.reg)
	loop.RegisterMetrics(d.reg, obs.Label{Key: "node", Value: cfg.Name})

	eidSpace := netaddr.MustParsePrefix(cfg.EIDSpace)

	// xTR role: the data plane. Registered first so the encap fast path
	// is the first sniffer inbound data traffic meets.
	if cfg.Site != nil {
		miss := lisp.MissDrop
		if cfg.Site.MissPolicy == "queue" {
			miss = lisp.MissQueue
		}
		for _, l := range cfg.Site.Locators {
			host.AddAddr(netaddr.MustParseAddr(l.RLOC))
		}
		d.xtr = lisp.NewXTR(loop, host, lisp.XTRConfig{
			RLOC:           netaddr.MustParseAddr(cfg.Site.Locators[0].RLOC),
			LocalEIDs:      netaddr.MustParsePrefix(cfg.Site.EIDPrefix),
			EIDSpace:       eidSpace,
			CacheCapacity:  cfg.Site.CacheCapacity,
			MissPolicy:     miss,
			OverclaimFloor: cfg.Defense.OverclaimFloor,
			GleanRateLimit: cfg.Defense.GleanRateLimit,
			Obs:            d.reg,
			Recorder:       d.rec,
		})
	}

	// PCE role: PCED+PCES on the DNS path, plus the IRC engine ranking
	// the site's locators.
	if cfg.PCE != nil {
		pceAddr := netaddr.MustParseAddr(cfg.PCE.Addr)
		dnsAddr := netaddr.MustParseAddr(cfg.PCE.DNSAddr)
		host.AddAddr(pceAddr)
		host.AddAddr(dnsAddr)

		var providers []*irc.Provider
		if cfg.Site != nil {
			for _, l := range cfg.Site.Locators {
				base := time.Duration(l.BaseLatencyMillis) * time.Millisecond
				if base == 0 {
					base = 10 * time.Millisecond
				}
				providers = append(providers, &irc.Provider{
					Name:        l.Name,
					RLOC:        netaddr.MustParseAddr(l.RLOC),
					CapacityBps: l.CapacityBps,
					BaseLatency: base,
					// Load stays nil: the real host has no per-provider
					// interface counters; Sample() nil-guards.
				})
			}
		}
		if len(providers) == 0 {
			return nil, fmt.Errorf("lispd: pce role needs site locators to rank")
		}
		d.engine = irc.NewEngine(loop, providers, policyByName(cfg.PCE.Policy))

		var sitePrefix netaddr.Prefix
		if cfg.Site != nil {
			sitePrefix = netaddr.MustParsePrefix(cfg.Site.EIDPrefix)
		}
		d.pce = core.NewWithRuntime(loop, host, core.Config{
			Addr:      pceAddr,
			EIDPrefix: sitePrefix,
			DNSAddr:   dnsAddr,
			Engine:    d.engine,
			// Group stays invalid: no multicast fabric, pushes unicast.
			MappingTTL:       cfg.PCE.MappingTTL,
			PendingTTL:       cfg.PCE.PendingTTL(),
			AuthKey:          cfg.AuthKey(),
			FetchServiceRate: cfg.Defense.FetchServiceRate,
			FetchQueueCap:    cfg.Defense.FetchQueueCap,
			FetchQuotaLimit:  cfg.Defense.FetchQuotaLimit,
			Obs:              d.reg,
			Recorder:         d.rec,
		})
		if d.xtr != nil {
			d.pce.WireXTR(d.xtr)
		}
	}

	// DNS front end (required with a PCE role, optional without).
	if cfg.DNS != nil {
		addr := d.dnsAddr()
		if !addr.IsValid() {
			return nil, fmt.Errorf("lispd: dns front end needs pce.dnsAddr (or a pce role)")
		}
		host.AddAddr(addr)
		d.fe = newDNSFrontEnd(host, addr, cfg.DNS, d.pce, d.reg)
	}

	for _, p := range cfg.Peers {
		ra, err := net.ResolveUDPAddr("udp4", p.Endpoint)
		if err != nil {
			return nil, fmt.Errorf("lispd: peer %q: %w", p.Endpoint, err)
		}
		host.SetPeer(netaddr.MustParsePrefix(p.Prefix), ra)
	}

	// Admin endpoint: the listener binds at construction (so a bad
	// address fails New, and tests can read AdminAddr before Start), but
	// serving starts with the daemon.
	if cfg.Admin != "" {
		admin, err := newAdminServer(d, cfg.Admin)
		if err != nil {
			host.Close()
			return nil, err
		}
		d.admin = admin
	}
	return d, nil
}

func (d *Daemon) dnsAddr() netaddr.Addr {
	if d.cfg.PCE != nil {
		return netaddr.MustParseAddr(d.cfg.PCE.DNSAddr)
	}
	return netaddr.Addr(0)
}

func policyByName(name string) irc.Policy {
	switch name {
	case "", "min-latency":
		return irc.MinLatency{}
	case "load-balance":
		return irc.LoadBalance{}
	case "cost-aware":
		return irc.CostAware{}
	case "equal-split":
		return irc.EqualSplit{}
	}
	panic("lispd: unvalidated policy " + name) // Validate rejects earlier
}

// Start launches the event loop and the socket reader.
func (d *Daemon) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started || d.closed {
		return
	}
	d.started = true
	d.loop.Start()
	d.host.Start()
	if d.admin != nil {
		d.admin.start()
	}
}

// drainTimeout bounds how long Close waits for the loop to finish what
// the socket reader had already handed it: a wedged loop must not hang
// shutdown.
const drainTimeout = 2 * time.Second

// Close shuts the daemon down without losing what it had already read:
// the socket reader stops first, the loop runs the frames it was handed
// and writes their output, and only then does the socket close and the
// loop stop.
func (d *Daemon) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	if d.admin != nil {
		d.admin.close()
	}
	d.host.StopReading()
	if d.started {
		// A sentinel runs behind the frames already posted; handling them
		// may loop more back through Output, hence the re-check.
		deadline := time.Now().Add(drainTimeout)
		for d.onLoop(time.Until(deadline), func() {}) && d.host.Inflight() > 0 {
		}
	}
	d.host.Close()
	d.loop.Stop()
}

// onLoop runs fn on the loop goroutine and reports whether it finished
// within timeout — false means the loop is stopped or wedged, and fn may
// still run later.
func (d *Daemon) onLoop(timeout time.Duration, fn func()) bool {
	done := make(chan struct{})
	d.loop.Post(func() { fn(); close(done) })
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// config returns the active configuration; Reload swaps the pointer.
func (d *Daemon) config() *Config {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cfg
}

// Reload applies a new configuration. Only the DNS front end (records,
// views, forwarders) swaps at runtime — structural fields (listen
// address, site, pce addressing, keys) are immutable per process and a
// change is rejected whole, so a bad reload never half-applies. The swap
// is atomic and in-flight resolutions keep working across it.
func (d *Daemon) Reload(cfg *Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cur := d.config()
	if cfg.Listen != cur.Listen || cfg.Name != cur.Name {
		return fmt.Errorf("lispd: reload cannot change listen/name (restart required)")
	}
	if cfg.Admin != cur.Admin {
		return fmt.Errorf("lispd: reload cannot change admin address (restart required)")
	}
	if (cfg.Site == nil) != (cur.Site == nil) || (cfg.PCE == nil) != (cur.PCE == nil) {
		return fmt.Errorf("lispd: reload cannot change roles (restart required)")
	}
	if cfg.Site != nil && cfg.Site.EIDPrefix != cur.Site.EIDPrefix {
		return fmt.Errorf("lispd: reload cannot change site.eidPrefix (restart required)")
	}
	if cfg.DNS == nil {
		return fmt.Errorf("lispd: reload cannot drop the dns front end")
	}
	if d.fe == nil {
		return fmt.Errorf("lispd: no dns front end to reload")
	}
	d.fe.swap(cfg.DNS)
	for _, p := range cfg.Peers {
		ra, err := net.ResolveUDPAddr("udp4", p.Endpoint)
		if err != nil {
			return fmt.Errorf("lispd: peer %q: %w", p.Endpoint, err)
		}
		d.host.SetPeer(netaddr.MustParsePrefix(p.Prefix), ra)
	}
	d.mu.Lock()
	d.cfg = cfg
	d.mu.Unlock()
	return nil
}

// RealAddr returns the daemon socket's real address, for peering.
func (d *Daemon) RealAddr() *net.UDPAddr { return d.host.RealAddr() }

// SetPeer routes a destination prefix to a real socket (tests register
// themselves as end hosts this way).
func (d *Daemon) SetPeer(p netaddr.Prefix, ra *net.UDPAddr) { d.host.SetPeer(p, ra) }

// Loop exposes the daemon's event loop (tests post probes through it).
func (d *Daemon) Loop() *runtime.Loop { return d.loop }

// Host exposes the overlay host.
func (d *Daemon) Host() *overlay.Host { return d.host }

// XTR returns the daemon's tunnel router (nil without a site role).
func (d *Daemon) XTR() *lisp.XTR { return d.xtr }

// PCE returns the daemon's PCE (nil without a pce role).
func (d *Daemon) PCE() *core.PCE { return d.pce }

// FrontEndStats snapshots the DNS front end counters (atomic, safe while
// running).
func (d *Daemon) FrontEndStats() FrontEndStats { return d.fe.Stats() }

// Registry exposes the daemon's metrics registry (what /metrics serves).
func (d *Daemon) Registry() *obs.Registry { return d.reg }

// Recorder exposes the daemon's control-plane flight recorder.
func (d *Daemon) Recorder() *obs.FlightRecorder { return d.rec }

// AdminAddr returns the admin endpoint's real listen address, or "" when
// the endpoint is disabled.
func (d *Daemon) AdminAddr() string {
	if d.admin == nil {
		return ""
	}
	return d.admin.ln.Addr().String()
}
