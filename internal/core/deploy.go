package core

import (
	"hash/fnv"

	"github.com/pcelisp/pcelisp/internal/irc"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/obs"
	"github.com/pcelisp/pcelisp/internal/topo"
)

// flowStringHash hashes (client, qname) for step-1 ingress selection,
// before ED is known.
func flowStringHash(client netaddr.Addr, qname string) uint64 {
	h := fnv.New64a()
	var b [4]byte
	client.PutBytes(b[:])
	h.Write(b[:])
	h.Write([]byte(qname))
	return h.Sum64()
}

// Engine returns the PCE's IRC engine.
func (p *PCE) Engine() *irc.Engine { return p.cfg.Engine }

// DeployDomain wires a full PCE control plane into a built topology
// domain: an IRC engine over the domain's providers, the PCE on the DNS
// path, the resolver IPC hooks and every xTR. The engine's background
// sampling is NOT started — call pce.Engine().Start() when the scenario
// needs live utilization tracking (it keeps the event queue busy forever).
func DeployDomain(d *topo.Domain, policy irc.Policy) *PCE {
	return DeployDomainOpts(d, policy, DeployOptions{})
}

// DeployOptions carries the optional knobs of DeployDomainOpts.
type DeployOptions struct {
	// MappingTTL is the pushed-mapping lifetime in seconds (0 = default).
	MappingTTL uint32
	// AuthKey enables PCECP signing and verification (see Config.AuthKey).
	AuthKey []byte
	// FetchServiceRate, FetchQueueCap and FetchQuotaLimit bound the PCED
	// MapFetch service (see Config).
	FetchServiceRate int
	FetchQueueCap    int
	FetchQuotaLimit  int
	// Obs and Recorder wire the PCE's counters and flight events (see
	// Config.Obs / Config.Recorder).
	Obs      *obs.Registry
	Recorder *obs.FlightRecorder
}

// DeployDomainOpts is DeployDomain with the full option set — the entry
// point the adversarial experiments use to provision per-plane keys and
// flood defenses.
func DeployDomainOpts(d *topo.Domain, policy irc.Policy, opts DeployOptions) *PCE {
	providers := make([]*irc.Provider, len(d.Providers))
	for i, prov := range d.Providers {
		providers[i] = &irc.Provider{
			Name:        prov.Name,
			RLOC:        prov.RLOC,
			Load:        prov.EgressIface.OfferedBytes,
			CapacityBps: prov.CapacityBps,
			BaseLatency: prov.CoreDelay,
		}
	}
	engine := irc.NewEngine(d.PCENode.Sim(), providers, policy)
	pce := NewWithRuntime(d.PCENode.Sim(), d.PCENode, Config{
		Addr:             d.PCEAddr,
		EIDPrefix:        d.EIDPrefix,
		DNSAddr:          d.Resolver.Addr(),
		Engine:           engine,
		Group:            d.Group,
		MappingTTL:       opts.MappingTTL,
		AuthKey:          opts.AuthKey,
		FetchServiceRate: opts.FetchServiceRate,
		FetchQueueCap:    opts.FetchQueueCap,
		FetchQuotaLimit:  opts.FetchQuotaLimit,
		Obs:              opts.Obs,
		Recorder:         opts.Recorder,
	})
	pce.AttachResolver(d.Resolver)
	for _, x := range d.XTRs {
		pce.WireXTR(x)
	}
	// Register the provider egress watches with the owning xTRs so a
	// later EnableProbing reports local link failures back to the PCE.
	for _, prov := range d.Providers {
		prov.XTR.WatchEgress(prov.RLOC)
	}
	return pce
}
