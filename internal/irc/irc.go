// Package irc implements the Intelligent Route Control engine the paper
// leans on twice: in step 1, PCES computes the local (ingress) RLOC for
// the reverse direction of a new flow "based on TE constraints ... the
// algorithms used to determine the ingress RLOC are inherently the same
// used today by Intelligent Route Control (IRC) techniques"; and in step
// 6, the egress mapping PCED hands out "is made by an online IRC engine
// running in background, so the mapping is always known aforehand".
//
// The engine watches the domain's provider links (EWMA-smoothed latency
// and measured utilization), applies a pluggable ranking policy, and keeps
// a precomputed locator set ready so the PCE answers at line rate.
package irc

import (
	"fmt"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// EWMA is an exponentially weighted moving average.
type EWMA struct {
	alpha float64
	value float64
	ready bool
}

// NewEWMA builds an EWMA with smoothing factor alpha in (0,1]; higher
// alpha weights recent samples more.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("irc: bad EWMA alpha %v", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Update folds in a sample.
func (e *EWMA) Update(x float64) {
	if !e.ready {
		e.value, e.ready = x, true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Value returns the current average (0 before any sample).
func (e *EWMA) Value() float64 { return e.value }

// Ready reports whether at least one sample arrived.
func (e *EWMA) Ready() bool { return e.ready }

// Provider describes one upstream link of a multihomed domain.
type Provider struct {
	// Name labels the provider in tables ("Provider A").
	Name string
	// RLOC is the locator address traffic uses via this provider.
	RLOC netaddr.Addr
	// Load samples the provider link's cumulative offered bytes (tx toward
	// the provider, rx from it); the deltas feed the utilization estimate.
	// Nil — a host with no per-provider counters, like lispd's single
	// socket — leaves utilization unsampled.
	Load func() (tx, rx uint64)
	// CapacityBps is the provisioned capacity in bits per second.
	CapacityBps int64
	// CostPerMbps is the billing rate for the cost-aware policy.
	CostPerMbps float64
	// BaseLatency seeds the latency estimate before measurements arrive.
	BaseLatency runtime.Time
}

// ProviderState is a point-in-time snapshot handed to policies.
type ProviderState struct {
	// Index is the provider's position in the engine's provider list.
	Index int
	// Name and RLOC identify the provider.
	Name string
	RLOC netaddr.Addr
	// LatencyMs is the smoothed one-way latency estimate.
	LatencyMs float64
	// EgressUtil and IngressUtil are fractions of capacity in [0,1+).
	EgressUtil, IngressUtil float64
	// CapacityBps and CostPerMbps echo the configuration.
	CapacityBps int64
	CostPerMbps float64
	// Up is false while the provider is administratively or
	// observationally down; policies must skip it.
	Up bool
}

// Choice is one ranked locator produced by a policy.
type Choice struct {
	// Index is the chosen provider's index.
	Index int
	// Priority and Weight follow LISP locator semantics: lower priority
	// preferred, weights split within a priority level.
	Priority uint8
	Weight   uint8
}

// Policy ranks providers for a traffic direction.
type Policy interface {
	// Name labels the policy in experiment tables.
	Name() string
	// Rank returns the locator choices given provider snapshots. Down
	// providers are pre-filtered. An empty result means "no preference":
	// the engine falls back to equal split.
	Rank(providers []ProviderState) []Choice
}

// monState tracks per-provider measurement state.
type monState struct {
	latency     *EWMA
	egressUtil  *EWMA
	ingressUtil *EWMA
	lastTxBytes uint64
	lastRxBytes uint64
	up          bool
}

// Engine is a per-domain IRC engine.
type Engine struct {
	rt        runtime.Runtime
	providers []*Provider
	policy    Policy
	mon       []*monState

	// SampleInterval is the utilization sampling period (default 1s).
	SampleInterval runtime.Time

	// OnRecompute, when set, fires after every background recomputation —
	// the PCE uses it to know fresh mappings are available.
	OnRecompute func()

	egress  []packet.LISPLocator // precomputed egress locator set
	ingress []Choice             // precomputed ingress ranking

	// Stats counts engine activity.
	Stats EngineStats
}

// EngineStats counts engine activity.
type EngineStats struct {
	Samples    uint64
	Recomputes uint64
	Failovers  uint64
}

// NewEngine builds an engine over the given providers with a policy. It
// takes the runtime contract, so the same engine samples under the
// simulator and under the daemon's real-time loop.
func NewEngine(rt runtime.Runtime, providers []*Provider, policy Policy) *Engine {
	if len(providers) == 0 {
		panic("irc: engine needs at least one provider")
	}
	e := &Engine{
		rt:             rt,
		providers:      providers,
		policy:         policy,
		SampleInterval: time.Second,
	}
	for _, p := range providers {
		ms := &monState{
			latency:     NewEWMA(0.3),
			egressUtil:  NewEWMA(0.5),
			ingressUtil: NewEWMA(0.5),
			up:          true,
		}
		ms.latency.Update(float64(p.BaseLatency) / float64(time.Millisecond))
		e.mon = append(e.mon, ms)
	}
	e.recompute()
	return e
}

// Start begins background sampling and recomputation, the paper's "online
// IRC engine running in background".
func (e *Engine) Start() {
	e.sampleAndRecompute()
}

func (e *Engine) sampleAndRecompute() {
	e.Sample()
	e.recompute()
	e.rt.ScheduleTimer(e.SampleInterval, e, runtime.TimerArg{})
}

// OnTimer implements runtime.TimerHandler: the background sampling tick.
func (e *Engine) OnTimer(runtime.TimerArg) { e.sampleAndRecompute() }

// Sample reads link counters once and updates utilization estimates.
func (e *Engine) Sample() {
	e.Stats.Samples++
	dt := float64(e.SampleInterval) / float64(time.Second)
	for i, p := range e.providers {
		ms := e.mon[i]
		if p.Load == nil || p.CapacityBps == 0 {
			continue
		}
		// Offered load on purpose (transmitted, not delivered, bytes): the
		// engine ranks providers by pressure on the link, and offered
		// load is the overload signal — goodput saturates at capacity.
		// The te.Tracker reads goodput for the experiment figures.
		tx, rx := p.Load()
		if e.Stats.Samples > 1 {
			ms.egressUtil.Update(float64(tx-ms.lastTxBytes) * 8 / dt / float64(p.CapacityBps))
			ms.ingressUtil.Update(float64(rx-ms.lastRxBytes) * 8 / dt / float64(p.CapacityBps))
		}
		ms.lastTxBytes, ms.lastRxBytes = tx, rx
	}
}

// ReportLatency feeds a latency measurement for a provider (e.g. from
// control-plane RTTs observed by the PCE).
func (e *Engine) ReportLatency(index int, d runtime.Time) {
	e.mon[index].latency.Update(float64(d) / float64(time.Millisecond))
}

// SetProviderUp marks a provider usable or failed. Marking the active
// provider down triggers immediate recomputation — IRC failover.
func (e *Engine) SetProviderUp(index int, up bool) {
	if e.mon[index].up == up {
		return
	}
	e.mon[index].up = up
	if !up {
		e.Stats.Failovers++
	}
	e.recompute()
}

// Snapshot returns current provider states in index order.
func (e *Engine) Snapshot() []ProviderState {
	out := make([]ProviderState, len(e.providers))
	for i, p := range e.providers {
		ms := e.mon[i]
		out[i] = ProviderState{
			Index: i, Name: p.Name, RLOC: p.RLOC,
			LatencyMs:   ms.latency.Value(),
			EgressUtil:  ms.egressUtil.Value(),
			IngressUtil: ms.ingressUtil.Value(),
			CapacityBps: p.CapacityBps,
			CostPerMbps: p.CostPerMbps,
			Up:          ms.up,
		}
	}
	return out
}

func (e *Engine) recompute() {
	e.Stats.Recomputes++
	states := make([]ProviderState, 0, len(e.providers))
	for _, s := range e.Snapshot() {
		if s.Up {
			states = append(states, s)
		}
	}
	if len(states) == 0 {
		e.egress, e.ingress = nil, nil
		return
	}
	choices := e.policy.Rank(states)
	if len(choices) == 0 {
		choices = equalSplit(states)
	}
	e.ingress = choices
	e.egress = e.choicesToLocators(choices)
	if e.OnRecompute != nil {
		e.OnRecompute()
	}
}

func (e *Engine) choicesToLocators(choices []Choice) []packet.LISPLocator {
	out := make([]packet.LISPLocator, 0, len(choices))
	for _, c := range choices {
		out = append(out, packet.LISPLocator{
			Priority: c.Priority, Weight: c.Weight,
			Local: true, Reachable: true,
			Addr: e.providers[c.Index].RLOC,
		})
	}
	return out
}

// MappingLocators returns the precomputed locator set advertising how
// this domain wants to be reached — what PCED embeds in the encapsulated
// DNS reply ("the mapping is always known aforehand"). The slice is
// shared; callers must not mutate it.
func (e *Engine) MappingLocators() []packet.LISPLocator { return e.egress }

// IngressRLOC picks the inbound locator for a new flow (the paper's step
// 1): the best-priority choice, weighted by the flow hash so concurrent
// flows spread per the policy's weights.
func (e *Engine) IngressRLOC(flowHash uint64) (netaddr.Addr, bool) {
	if len(e.ingress) == 0 {
		return 0, false
	}
	best := e.ingress[0].Priority
	var total uint32
	for _, c := range e.ingress {
		if c.Priority != best {
			continue
		}
		w := uint32(c.Weight)
		if w == 0 {
			w = 1
		}
		total += w
	}
	target := uint32(flowHash % uint64(total))
	for _, c := range e.ingress {
		if c.Priority != best {
			continue
		}
		w := uint32(c.Weight)
		if w == 0 {
			w = 1
		}
		if target < w {
			return e.providers[c.Index].RLOC, true
		}
		target -= w
	}
	return e.providers[e.ingress[0].Index].RLOC, true
}

// Providers returns the configured providers.
func (e *Engine) Providers() []*Provider { return e.providers }

// Policy returns the active policy.
func (e *Engine) Policy() Policy { return e.policy }

// SetPolicy swaps the policy and recomputes.
func (e *Engine) SetPolicy(p Policy) {
	e.policy = p
	e.recompute()
}

func equalSplit(states []ProviderState) []Choice {
	out := make([]Choice, len(states))
	for i, s := range states {
		out[i] = Choice{Index: s.Index, Priority: 1, Weight: uint8(100 / len(states))}
	}
	return out
}
