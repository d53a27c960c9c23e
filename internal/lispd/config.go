// Package lispd assembles the runtime-independent protocol core —
// internal/lisp xTRs, the internal/core PCE and the internal/irc engine —
// into a real-time daemon: one overlay host on one UDP socket, driven by
// a runtime.Loop, configured from a declarative JSON file. cmd/lispd is a
// thin main around this package; the loopback e2e and sim-vs-real
// differential tests drive it in-process.
package lispd

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
)

// Config is the daemon's declarative configuration. A daemon runs an xTR
// role (Site set), a PCE role (PCE set), or both; field names follow the
// JSON file.
type Config struct {
	// Name labels the daemon in traces and events.
	Name string `json:"name"`
	// Listen is the real UDP socket to bind ("127.0.0.1:0").
	Listen string `json:"listen"`
	// Admin, when set, serves the observability endpoint on this TCP
	// address ("127.0.0.1:9090"): Prometheus /metrics, /healthz,
	// /statusz, /debug/pprof/ and /flightrecorder. Empty disables it.
	Admin string `json:"admin,omitempty"`
	// Seed drives the daemon's deterministic random stream (nonces,
	// locator draws). Daemons in a differential test pin it.
	Seed int64 `json:"seed"`
	// EIDSpace is the global EID space ("100.0.0.0/8").
	EIDSpace string `json:"eidSpace"`
	// Site is the xTR role: the local EID prefix and its locators.
	Site *SiteConfig `json:"site,omitempty"`
	// PCE is the control-plane role (PCED+PCES colocated).
	PCE *PCEConfig `json:"pce,omitempty"`
	// Keys declares the control-plane authentication keys by ID.
	Keys []KeyConfig `json:"keys,omitempty"`
	// AuthKeyID names the key (from Keys) signing and verifying PCECP
	// messages. Empty disables authentication.
	AuthKeyID string `json:"authKeyId,omitempty"`
	// Defense is the flood-defense profile (PR 6/8 knobs).
	Defense DefenseConfig `json:"defense"`
	// DNS is the split-horizon DNS front end.
	DNS *DNSConfig `json:"dns,omitempty"`
	// Peers statically routes destination prefixes to other daemon
	// sockets ("100.2.0.0/16" -> "127.0.0.1:4010").
	Peers []PeerConfig `json:"peers,omitempty"`
}

// SiteConfig is the xTR role: one site, one EID prefix, its locators.
type SiteConfig struct {
	// EIDPrefix is the site's EID prefix ("100.1.0.0/16").
	EIDPrefix string `json:"eidPrefix"`
	// Locators are the site's provider attachments, in priority order;
	// the first is the xTR's own default RLOC.
	Locators []LocatorConfig `json:"locators"`
	// MissPolicy is "drop" (default) or "queue".
	MissPolicy string `json:"missPolicy,omitempty"`
	// CacheCapacity bounds the map-cache (0 = unbounded).
	CacheCapacity int `json:"cacheCapacity,omitempty"`
}

// LocatorConfig is one provider attachment.
type LocatorConfig struct {
	// Name labels the provider ("P0").
	Name string `json:"name"`
	// RLOC is the locator address ("10.0.0.1").
	RLOC string `json:"rloc"`
	// CapacityBps is the provisioned capacity (0 = unlimited).
	CapacityBps int64 `json:"capacityBps,omitempty"`
	// BaseLatencyMillis seeds the latency estimate (default 10).
	BaseLatencyMillis int64 `json:"baseLatencyMillis,omitempty"`
}

// PCEConfig is the PCE role.
type PCEConfig struct {
	// Addr is the PCE's own address ("172.16.1.1").
	Addr string `json:"addr"`
	// DNSAddr is the colocated DNS front end's address; port-P traffic
	// toward it is intercepted (PCES), and replies leaving it are
	// encapsulated (PCED).
	DNSAddr string `json:"dnsAddr"`
	// MappingTTL is the pushed-mapping lifetime in seconds (default 300).
	MappingTTL uint32 `json:"mappingTtl,omitempty"`
	// PendingTTLMillis bounds step-1 flow wait (default 10000).
	PendingTTLMillis int64 `json:"pendingTtlMillis,omitempty"`
	// Policy names the IRC policy: "min-latency" (default),
	// "load-balance", "cost-aware", "equal-split".
	Policy string `json:"policy,omitempty"`
}

// KeyConfig declares one control-plane key.
type KeyConfig struct {
	ID     string `json:"id"`
	Secret string `json:"secret"`
}

// DefenseConfig is the layered-defense profile: zero values mean the
// defense is off (the open-plane baseline).
type DefenseConfig struct {
	// FetchServiceRate bounds PCED MapFetch service (queries/s).
	FetchServiceRate int `json:"fetchServiceRate,omitempty"`
	// FetchQueueCap bounds the fetch backlog (default 64 when rated).
	FetchQueueCap int `json:"fetchQueueCap,omitempty"`
	// FetchQuotaLimit caps fetches per source per second.
	FetchQuotaLimit int `json:"fetchQuotaLimit,omitempty"`
	// OverclaimFloor rejects mappings broader than this prefix length.
	OverclaimFloor int `json:"overclaimFloor,omitempty"`
	// GleanRateLimit bounds decap-path gleaning (new flows/s).
	GleanRateLimit int `json:"gleanRateLimit,omitempty"`
}

// DNSConfig is the split-horizon DNS front end: authoritative records for
// the local zone, client views selected by source CIDR, and forwarding
// rules toward remote authoritative servers.
type DNSConfig struct {
	// Zone is the local authoritative zone ("d0.example").
	Zone string `json:"zone"`
	// Records are the zone's A records.
	Records []RecordConfig `json:"records,omitempty"`
	// Views partition clients by source CIDR; the first matching view
	// wins. A query matching no view is refused.
	Views []ViewConfig `json:"views"`
	// Forward routes query suffixes to remote authoritative servers.
	Forward []ForwardConfig `json:"forward,omitempty"`
}

// RecordConfig is one A record.
type RecordConfig struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	TTL  uint32 `json:"ttl,omitempty"`
}

// ViewConfig is one split-horizon view (the CoreDNS view pattern: a
// source-address ACL choosing which zone contents and recursion behavior
// a client sees).
type ViewConfig struct {
	// Name labels the view ("internal", "external").
	Name string `json:"name"`
	// CIDRs are the client source prefixes selecting this view.
	CIDRs []string `json:"cidrs"`
	// Recursion permits forwarding for this view's clients. Authoritative
	// answers are always served.
	Recursion bool `json:"recursion"`
	// Hosts overrides answers per name for this view — the split-horizon
	// knob (internal clients can see internal addresses).
	Hosts map[string]string `json:"hosts,omitempty"`
}

// ForwardConfig routes queries under a zone suffix to a server address
// (an address routable via Peers, typically a remote daemon's DNS front
// end).
type ForwardConfig struct {
	Zone   string `json:"zone"`
	Server string `json:"server"`
}

// PeerConfig statically routes a destination prefix to a real socket.
type PeerConfig struct {
	Prefix   string `json:"prefix"`
	Endpoint string `json:"endpoint"`
}

// Load reads and validates a config file.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg, err := parseConfig(data)
	if err != nil {
		return nil, fmt.Errorf("lispd: %s: %w", path, err)
	}
	return cfg, nil
}

// parseConfig is Load past the file read: operator-written bytes in, a
// validated Config or an error out — never a panic (FuzzConfig).
func parseConfig(data []byte) (*Config, error) {
	cfg := &Config{}
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// Validate checks the configuration's internal consistency. It is called
// by Load and by Daemon.Reload before any state is touched, so a bad
// config never half-applies.
func (c *Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("name is required")
	}
	if c.Listen == "" {
		return fmt.Errorf("listen is required")
	}
	if c.Site == nil && c.PCE == nil {
		return fmt.Errorf("at least one role (site or pce) is required")
	}
	eidSpace, err := netaddr.ParsePrefix(c.EIDSpace)
	if err != nil {
		return fmt.Errorf("eidSpace: %w", err)
	}

	keys := make(map[string]struct{}, len(c.Keys))
	for _, k := range c.Keys {
		if k.ID == "" || k.Secret == "" {
			return fmt.Errorf("key needs id and secret")
		}
		if _, dup := keys[k.ID]; dup {
			return fmt.Errorf("duplicate key id %q", k.ID)
		}
		keys[k.ID] = struct{}{}
	}
	if c.AuthKeyID != "" {
		if _, ok := keys[c.AuthKeyID]; !ok {
			return fmt.Errorf("authKeyId %q references no declared key", c.AuthKeyID)
		}
	}

	var sitePrefix netaddr.Prefix
	if c.Site != nil {
		sitePrefix, err = netaddr.ParsePrefix(c.Site.EIDPrefix)
		if err != nil {
			return fmt.Errorf("site.eidPrefix: %w", err)
		}
		if !eidSpace.Contains(sitePrefix.Addr()) {
			return fmt.Errorf("site.eidPrefix %v lies outside eidSpace %v", sitePrefix, eidSpace)
		}
		if len(c.Site.Locators) == 0 {
			return fmt.Errorf("site %v has zero locators", sitePrefix)
		}
		for _, l := range c.Site.Locators {
			rloc, err := netaddr.ParseAddr(l.RLOC)
			if err != nil {
				return fmt.Errorf("locator %q: %w", l.RLOC, err)
			}
			if eidSpace.Contains(rloc) {
				return fmt.Errorf("locator %v lies inside the EID space %v", rloc, eidSpace)
			}
		}
		switch c.Site.MissPolicy {
		case "", "drop", "queue":
		default:
			return fmt.Errorf("site.missPolicy %q (want drop or queue)", c.Site.MissPolicy)
		}
	}

	if c.PCE != nil {
		if _, err := netaddr.ParseAddr(c.PCE.Addr); err != nil {
			return fmt.Errorf("pce.addr: %w", err)
		}
		if _, err := netaddr.ParseAddr(c.PCE.DNSAddr); err != nil {
			return fmt.Errorf("pce.dnsAddr: %w", err)
		}
		switch c.PCE.Policy {
		case "", "min-latency", "load-balance", "cost-aware", "equal-split":
		default:
			return fmt.Errorf("pce.policy %q unknown", c.PCE.Policy)
		}
		if c.PCE.DNSAddr != "" && c.DNS == nil {
			return fmt.Errorf("pce role requires a dns front end (pce.dnsAddr is watched traffic)")
		}
	}

	if c.DNS != nil {
		for _, r := range c.DNS.Records {
			if _, err := netaddr.ParseAddr(r.Addr); err != nil {
				return fmt.Errorf("dns record %q: %w", r.Name, err)
			}
		}
		for _, v := range c.DNS.Views {
			if len(v.CIDRs) == 0 {
				return fmt.Errorf("dns view %q has no cidrs", v.Name)
			}
			for _, cidr := range v.CIDRs {
				if _, err := netaddr.ParsePrefix(cidr); err != nil {
					return fmt.Errorf("dns view %q cidr %q: %w", v.Name, cidr, err)
				}
			}
			for name, addr := range v.Hosts {
				if _, err := netaddr.ParseAddr(addr); err != nil {
					return fmt.Errorf("dns view %q host %q: %w", v.Name, name, err)
				}
			}
		}
		for _, f := range c.DNS.Forward {
			if _, err := netaddr.ParseAddr(f.Server); err != nil {
				return fmt.Errorf("dns forward %q: %w", f.Zone, err)
			}
		}
	}

	for _, p := range c.Peers {
		pfx, err := netaddr.ParsePrefix(p.Prefix)
		if err != nil {
			return fmt.Errorf("peer prefix %q: %w", p.Prefix, err)
		}
		// Peer routes INSIDE the site prefix are interior host attachments
		// and legitimate (narrower always wins LPM); a broader route that
		// swallows the site prefix would hand the site's own EID space to
		// a remote socket.
		if c.Site != nil && pfx.Bits() < sitePrefix.Bits() && pfx.Contains(sitePrefix.Addr()) {
			return fmt.Errorf("peer prefix %v overlaps the site's own EID prefix %v", pfx, sitePrefix)
		}
	}
	return nil
}

// AuthKey resolves the selected control-plane key bytes (nil when
// authentication is off).
func (c *Config) AuthKey() []byte {
	if c.AuthKeyID == "" {
		return nil
	}
	for _, k := range c.Keys {
		if k.ID == c.AuthKeyID {
			return []byte(k.Secret)
		}
	}
	return nil
}

// PendingTTL returns the configured pending TTL as a duration.
func (p *PCEConfig) PendingTTL() time.Duration {
	if p.PendingTTLMillis <= 0 {
		return 0
	}
	return time.Duration(p.PendingTTLMillis) * time.Millisecond
}
