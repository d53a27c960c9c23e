// Package lisp implements the LISP data plane of draft-farinacci-lisp-08:
// Ingress Tunnel Routers (ITRs) that encapsulate EID-addressed packets
// toward Routing Locators, Egress Tunnel Routers (ETRs) that decapsulate
// them, the EID-to-RLOC map-cache with TTL ageing and pluggable
// capacity-eviction policies, and the cache-miss policies whose cost the
// paper's claim (i) is about: dropping or queueing packets while the
// mapping resolves.
//
// The paper's PCE control plane extends the data plane with per-flow
// mappings — the (ES, ED, RLOCS, RLOCD) tuples of step 7b — which let an
// ITR stamp an outer source RLOC different from its own address,
// realizing two independent one-way tunnels.
package lisp

import (
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/obs"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// MapEntry is one EID-prefix-to-RLOC-set mapping in an ITR's map-cache.
type MapEntry struct {
	// EIDPrefix is the covered EID range.
	EIDPrefix netaddr.Prefix
	// Locators is the RLOC set with priorities and weights. Mutate it
	// only through SetLocatorReachable (or invalidate the selection
	// cache by hand); SelectLocator memoizes the usable priority level.
	Locators []packet.LISPLocator
	// Expires is the absolute virtual expiry time (0 = never).
	Expires runtime.Time
	// Negative marks a cached resolution failure: the EID is known to be
	// unresolvable until Expires, so misses must not re-trigger
	// resolution (the negative-cache half of the scalability subsystem).
	Negative bool

	// Selection memo: the usable best priority level and its total
	// weight, computed in one pass over Locators and reused by every
	// SelectLocator call on the encap hot path until a locator mutation
	// invalidates it. selPrio is -1 when no locator is usable.
	selPrio  int16
	selTotal uint32
	selValid bool
	// gen counts locator mutations: it is bumped exactly where selValid
	// is cleared, so anything that pinned a locator choice (the xTR's
	// established-flow fast path) can detect staleness with one compare.
	gen uint32
	// ownLocators marks that Locators is a private copy: builders share
	// locator slices across entries, so the first reachability flip
	// copies on write instead of mutating a sibling's view.
	ownLocators bool
}

// Expired reports whether the entry is stale at time now.
func (e *MapEntry) Expired(now runtime.Time) bool {
	return e.Expires != 0 && now >= e.Expires
}

// locWeight is the locator's effective weight (zero counts as one, so a
// weightless locator still receives traffic).
func locWeight(l *packet.LISPLocator) uint32 {
	if l.Weight == 0 {
		return 1
	}
	return uint32(l.Weight)
}

// refreshSelection recomputes the selection memo in a single pass.
func (e *MapEntry) refreshSelection() {
	e.selPrio, e.selTotal = -1, 0
	for i := range e.Locators {
		l := &e.Locators[i]
		if l.Priority == 255 || !l.Reachable {
			continue
		}
		p := int16(l.Priority)
		switch {
		case e.selPrio < 0 || p < e.selPrio:
			e.selPrio, e.selTotal = p, locWeight(l)
		case p == e.selPrio:
			e.selTotal += locWeight(l)
		}
	}
	e.selValid = true
}

// SetLocatorReachable flips the R bit of every locator with the given
// address, copying the locator slice on first write (builders share
// slices across entries) and invalidating the selection memo. It
// reports whether anything changed.
func (e *MapEntry) SetLocatorReachable(addr netaddr.Addr, up bool) bool {
	changed := false
	for i := range e.Locators {
		if e.Locators[i].Addr != addr || e.Locators[i].Reachable == up {
			continue
		}
		if !changed && !e.ownLocators {
			cp := make([]packet.LISPLocator, len(e.Locators))
			copy(cp, e.Locators)
			e.Locators = cp
			e.ownLocators = true
		}
		e.Locators[i].Reachable = up
		changed = true
	}
	if changed {
		e.selValid = false
		e.gen++
	}
	return changed
}

// InvalidateSelection discards the memoized selection state. Callers
// that mutate Locators in place (rather than through SetLocatorReachable
// or SetLocators) must call it, or SelectLocator keeps splitting traffic
// by the priority level and weight total of the old vector.
func (e *MapEntry) InvalidateSelection() { e.selValid = false; e.gen++ }

// SetLocators replaces the locator vector of a live entry in place —
// for callers that hold the *MapEntry (a PCE database, TE tooling)
// rather than re-inserting through a cache. The entry takes ownership
// of locs and the selection memo is invalidated, so the next
// SelectLocator call splits flows by the new priorities and weights.
// (Replacement via MapCache.Insert is equally memo-safe: a fresh entry
// carries a fresh memo.)
func (e *MapEntry) SetLocators(locs []packet.LISPLocator) {
	e.Locators = locs
	e.ownLocators = true
	e.selValid = false
	e.gen++
}

// SelectLocator picks an RLOC for a flow: the lowest priority level, then
// weighted selection among that level keyed by the flow hash, so a flow
// sticks to one locator while aggregate traffic splits by weight. The
// priority level and weight total come from a memo maintained across
// calls, so the per-packet cost is a single scan of the locator set.
func (e *MapEntry) SelectLocator(flowHash uint64) (packet.LISPLocator, bool) {
	if !e.selValid {
		e.refreshSelection()
	}
	if e.selPrio < 0 {
		return packet.LISPLocator{}, false
	}
	target := uint32(flowHash % uint64(e.selTotal))
	for i := range e.Locators {
		l := &e.Locators[i]
		if int16(l.Priority) != e.selPrio || !l.Reachable {
			continue
		}
		w := locWeight(l)
		if target < w {
			return *l, true
		}
		target -= w
	}
	return packet.LISPLocator{}, false
}

// mapCacheCounters is the cache's one counter list (the xtrCounters
// pattern): the pcelisp_mapcache_* series, live as obs.Counter cells and
// snapshotted as MapCacheStats.
type mapCacheCounters[T any] struct {
	Hits      T `metric:"hits_total" help:"Lookups answered from a live positive entry."`
	Misses    T `metric:"misses_total" help:"Lookups with no usable mapping (includes negative hits)."`
	Expired   T `metric:"expired_total" help:"Entries retired by TTL expiry."`
	Evictions T `metric:"evictions_total" help:"Entries evicted by the capacity policy."`
	Inserts   T `metric:"inserts_total" help:"Positive mappings inserted."`
	// WheelRetired is the subset of Expired retired in batches (the rest
	// tripped the lazy check in Lookup inside the sub-granularity window).
	WheelRetired    T `metric:"wheel_retired_total" help:"Expired entries retired in timing-wheel batches."`
	NegativeInserts T `metric:"negative_inserts_total" help:"Failed resolutions recorded in the negative cache."`
	// Negative hits also count as Misses for data-path purposes.
	NegativeHits T `metric:"negative_hits_total" help:"Lookups answered 'known unresolvable' by the negative cache."`
}

// MapCacheStats counts cache activity.
type MapCacheStats = mapCacheCounters[uint64]

// wheelGranularity is the timing-wheel bucket width: expired entries
// leave the cache within this much virtual time of their TTL.
const wheelGranularity = runtime.Time(time.Second)

// MapCache is the ITR's EID-to-RLOC cache: longest-prefix-match lookups,
// TTL expiry against virtual time, and capacity eviction under a
// pluggable policy (LRU, LFU, 2Q — see EvictionPolicy). NERD-style
// full-database ITRs use capacity 0 (unbounded); cache-based ITRs use a
// finite capacity, which is where the paper's miss penalties come from.
//
// A timing wheel retires expired entries in O(1) batches, so Len() and
// the eviction statistics reflect live entries only — no lazy corpses.
// Failed resolutions can be recorded as negative host entries (see
// InsertNegative) so repeated misses for a dead EID stop re-triggering
// resolution storms.
type MapCache struct {
	rt       runtime.Runtime
	trie     *netaddr.Trie[*MapEntry]
	capacity int
	policy   EvictionPolicy
	wheel    *TimingWheel[netaddr.Prefix]
	// negatives indexes the live negative keys so a positive insert can
	// purge the covered ones: a stale negative /32 would otherwise
	// shadow the new mapping via longest-prefix match. A trie rather
	// than a map, so the purge scan visits keys in address order — the
	// cache's observable behavior stays deterministic by construction.
	negatives *netaddr.Trie[struct{}]

	met mapCacheCounters[obs.Counter]
}

// Stats snapshots the cache's activity counters.
func (c *MapCache) Stats() MapCacheStats { return obs.Snapshot[MapCacheStats](&c.met) }

// RegisterMetrics wires the cache's counters into r labeled by the
// hosting node plus any extra labels (e.g. cache="itr" vs "pce-remote"
// to disambiguate co-located caches). Call once, at construction time.
func (c *MapCache) RegisterMetrics(r *obs.Registry, node string, extra ...obs.Label) {
	r.RegisterSet("pcelisp_mapcache_", &c.met, append([]obs.Label{{Key: "node", Value: node}}, extra...)...)
}

// NewMapCache creates an LRU cache; capacity 0 means unbounded.
func NewMapCache(rt runtime.Runtime, capacity int) *MapCache {
	return NewMapCacheWithPolicy(rt, capacity, nil)
}

// NewMapCacheWithPolicy creates a cache with an explicit eviction policy
// (nil = LRU); capacity 0 means unbounded.
func NewMapCacheWithPolicy(rt runtime.Runtime, capacity int, policy EvictionPolicy) *MapCache {
	if policy == nil {
		policy = NewLRU()
	}
	c := &MapCache{
		rt:        rt,
		trie:      netaddr.NewTrie[*MapEntry](),
		capacity:  capacity,
		policy:    policy,
		negatives: netaddr.NewTrie[struct{}](),
	}
	c.wheel = NewTimingWheel[netaddr.Prefix](rt, wheelGranularity, c.retireExpired)
	return c
}

// Policy returns the eviction policy in use.
func (c *MapCache) Policy() EvictionPolicy { return c.policy }

// Len returns the number of live entries.
func (c *MapCache) Len() int { return c.trie.Len() }

// Insert stores a mapping with ttl seconds of life (0 = immortal),
// evicting a policy-chosen victim if at capacity.
func (c *MapCache) Insert(prefix netaddr.Prefix, locators []packet.LISPLocator, ttl uint32) *MapEntry {
	e := &MapEntry{EIDPrefix: prefix, Locators: locators}
	if ttl > 0 {
		e.Expires = c.rt.Now() + runtime.Time(ttl)*runtime.Time(time.Second)
	}
	c.insertEntry(prefix, e)
	c.met.Inserts.Inc()
	return e
}

// InsertNegative records that eid failed to resolve: a host-width
// negative entry that answers lookups with "known dead" until ttl
// seconds pass. A zero ttl is a no-op (negative caching disabled).
func (c *MapCache) InsertNegative(eid netaddr.Addr, ttl uint32) *MapEntry {
	if ttl == 0 {
		return nil
	}
	e := &MapEntry{
		EIDPrefix: netaddr.HostPrefix(eid),
		Negative:  true,
		Expires:   c.rt.Now() + runtime.Time(ttl)*runtime.Time(time.Second),
	}
	c.insertEntry(e.EIDPrefix, e)
	c.met.NegativeInserts.Inc()
	return e
}

// insertEntry places e under key prefix, handling capacity eviction and
// wheel registration.
func (c *MapCache) insertEntry(prefix netaddr.Prefix, e *MapEntry) {
	if _, exists := c.trie.Get(prefix); exists {
		c.policy.Touch(prefix)
	} else {
		if c.capacity > 0 && c.trie.Len() >= c.capacity {
			if victim, ok := c.policy.Victim(); ok {
				c.trie.Delete(victim)
				c.negatives.Delete(victim)
				c.met.Evictions.Inc()
			}
		}
		c.policy.Admit(prefix)
	}
	c.trie.Insert(prefix, e)
	if e.Negative {
		c.negatives.Insert(prefix, struct{}{})
	} else if c.negatives.Delete(prefix); c.negatives.Len() > 0 {
		// A fresh positive mapping overrides any negative host entries it
		// covers; left in place they would shadow it via longest-prefix
		// match for the rest of their TTL.
		var covered []netaddr.Prefix
		c.negatives.Walk(func(np netaddr.Prefix, _ struct{}) bool {
			if np != prefix && prefix.Contains(np.Addr()) {
				covered = append(covered, np)
			}
			return true
		})
		for _, np := range covered {
			c.removeKey(np)
		}
	}
	if e.Expires != 0 {
		c.wheel.Add(prefix, e.Expires)
	}
}

// retireExpired is the timing-wheel flush: drop every bucketed key whose
// current entry really is expired (refreshed entries are skipped — they
// are registered again in a later bucket).
func (c *MapCache) retireExpired(keys []netaddr.Prefix) {
	now := c.rt.Now()
	for _, p := range keys {
		e, ok := c.trie.Get(p)
		if !ok || !e.Expired(now) {
			continue
		}
		c.removeKey(p)
		c.met.Expired.Inc()
		c.met.WheelRetired.Inc()
	}
}

// removeKey drops the exact key from storage and policy tracking.
func (c *MapCache) removeKey(p netaddr.Prefix) {
	c.trie.Delete(p)
	c.negatives.Delete(p)
	c.policy.Remove(p)
}

// Delete removes the exact prefix.
func (c *MapCache) Delete(prefix netaddr.Prefix) bool {
	if _, ok := c.trie.Get(prefix); !ok {
		return false
	}
	c.removeKey(prefix)
	return true
}

// Lookup finds the longest-prefix mapping for eid, handling expiry, the
// negative cache, and the policy touch. Negative entries answer as
// misses (counted separately in Stats.NegativeHits); use HasNegative to
// ask whether resolution should be suppressed.
func (c *MapCache) Lookup(eid netaddr.Addr) (*MapEntry, bool) {
	e, p, ok := c.trie.Lookup(eid)
	if !ok {
		c.met.Misses.Inc()
		return nil, false
	}
	// The trie reports the matched length; recover the exact prefix key.
	key := netaddr.PrefixFrom(eid, p.Bits())
	if e.Expired(c.rt.Now()) {
		// The wheel retires in granularity batches; a lookup inside the
		// window still observes (and collects) the expired entry.
		c.met.Expired.Inc()
		c.met.Misses.Inc()
		c.removeKey(key)
		return nil, false
	}
	if e.Negative {
		c.met.NegativeHits.Inc()
		c.met.Misses.Inc()
		c.policy.Touch(key)
		return nil, false
	}
	c.met.Hits.Inc()
	c.policy.Touch(key)
	return e, true
}

// HasNegative reports whether eid is covered by a live negative entry,
// without touching the statistics.
func (c *MapCache) HasNegative(eid netaddr.Addr) bool {
	e, _, ok := c.trie.Lookup(eid)
	return ok && e.Negative && !e.Expired(c.rt.Now())
}

// Walk visits all live entries.
func (c *MapCache) Walk(fn func(netaddr.Prefix, *MapEntry) bool) {
	c.trie.Walk(func(p netaddr.Prefix, e *MapEntry) bool { return fn(p, e) })
}

// UpdateLocators replaces the locator vector of the entry stored under
// exactly prefix, keeping its identity, expiry, policy state and wheel
// registration — an in-place weight update for callers that must not
// reset the record's TTL (pushed updates that carry a TTL re-insert
// through Insert instead). The selection memo is invalidated so
// mid-flow updates take effect on the next packet. It reports whether
// the prefix was present (negative entries are left alone).
func (c *MapCache) UpdateLocators(prefix netaddr.Prefix, locs []packet.LISPLocator) bool {
	e, ok := c.trie.Get(prefix)
	if !ok || e.Negative {
		return false
	}
	e.SetLocators(locs)
	return true
}

// SetLocatorReachable flips the R bit of the given RLOC in every cached
// entry that lists it — how probe-driven liveness reaches the data
// plane. It returns the number of entries changed. The trie walk visits
// entries in address order, keeping the flip sequence deterministic.
func (c *MapCache) SetLocatorReachable(addr netaddr.Addr, up bool) int {
	changed := 0
	c.trie.Walk(func(_ netaddr.Prefix, e *MapEntry) bool {
		if e.SetLocatorReachable(addr, up) {
			changed++
		}
		return true
	})
	return changed
}

// FlowKey identifies a unidirectional flow by its EID pair.
type FlowKey struct {
	// Src and Dst are the inner source and destination EIDs.
	Src, Dst netaddr.Addr
}

// FlowEntry is a per-flow mapping installed by the PCE control plane: the
// paper's (ES, ED, RLOCS, RLOCD) tuple.
type FlowEntry struct {
	// SrcRLOC is the outer source to stamp (may differ from the ITR's own
	// RLOC — the reverse-direction TE knob).
	SrcRLOC netaddr.Addr
	// DstRLOC is the outer destination.
	DstRLOC netaddr.Addr
	// Expires is the absolute expiry (0 = never).
	Expires runtime.Time
}

// flowFast is the established-flow fast-path state for one dense slot:
// the lazily built outer-header template (nil until the first packet) and
// the cached egress interface for its source RLOC (SrcRLOC/DstRLOC are
// immutable for a slot's lifetime — Insert over an existing key resets
// the slot).
type flowFast struct {
	tmpl *packet.EncapTemplate
	out  runtime.Egress
}

// FlowTable holds per-flow mappings with TTL expiry. Entries live in
// dense parallel slices (struct-of-arrays) indexed through a FlowKey map,
// so the encap hot path reads contiguous memory and the fast-path encap
// state rides in a parallel lane instead of fattening every entry.
type FlowTable struct {
	rt    runtime.Runtime
	index map[FlowKey]int32
	keys  []FlowKey
	vals  []FlowEntry
	fast  []flowFast
	wheel *TimingWheel[FlowKey]
}

// NewFlowTable returns an empty flow table.
func NewFlowTable(rt runtime.Runtime) *FlowTable {
	t := &FlowTable{rt: rt, index: make(map[FlowKey]int32)}
	t.wheel = NewTimingWheel[FlowKey](rt, wheelGranularity, t.retireExpired)
	return t
}

// Insert installs a flow mapping with ttl seconds of life (0 = immortal).
func (t *FlowTable) Insert(k FlowKey, srcRLOC, dstRLOC netaddr.Addr, ttl uint32) {
	e := FlowEntry{SrcRLOC: srcRLOC, DstRLOC: dstRLOC}
	if ttl > 0 {
		e.Expires = t.rt.Now() + runtime.Time(ttl)*runtime.Time(time.Second)
		t.wheel.Add(k, e.Expires)
	}
	if i, ok := t.index[k]; ok {
		t.vals[i] = e
		t.fast[i] = flowFast{} // RLOCs may have changed
		return
	}
	t.index[k] = int32(len(t.vals))
	t.keys = append(t.keys, k)
	t.vals = append(t.vals, e)
	t.fast = append(t.fast, flowFast{})
}

// remove drops slot i, keeping the slices dense by moving the last slot
// into the hole and re-indexing it.
func (t *FlowTable) remove(i int32) {
	last := int32(len(t.vals) - 1)
	delete(t.index, t.keys[i])
	if i != last {
		t.keys[i], t.vals[i], t.fast[i] = t.keys[last], t.vals[last], t.fast[last]
		t.index[t.keys[i]] = i
	}
	t.keys = t.keys[:last]
	t.vals = t.vals[:last]
	t.fast[last] = flowFast{}
	t.fast = t.fast[:last]
}

// retireExpired batch-drops expired flow entries so Len stays honest in
// long-running simulations.
func (t *FlowTable) retireExpired(keys []FlowKey) {
	now := t.rt.Now()
	for _, k := range keys {
		if i, ok := t.index[k]; ok {
			e := &t.vals[i]
			if e.Expires != 0 && now >= e.Expires {
				t.remove(i)
			}
		}
	}
}

// lookupSlot returns the dense slot of the live entry for k. The slot is
// only valid until the next table mutation.
func (t *FlowTable) lookupSlot(k FlowKey) (int32, bool) {
	i, ok := t.index[k]
	if !ok {
		return 0, false
	}
	if e := &t.vals[i]; e.Expires != 0 && t.rt.Now() >= e.Expires {
		t.remove(i)
		return 0, false
	}
	return i, true
}

// Lookup returns the live entry for k.
func (t *FlowTable) Lookup(k FlowKey) (FlowEntry, bool) {
	i, ok := t.lookupSlot(k)
	if !ok {
		return FlowEntry{}, false
	}
	return t.vals[i], true
}

// Delete removes the entry for k.
func (t *FlowTable) Delete(k FlowKey) {
	if i, ok := t.index[k]; ok {
		t.remove(i)
	}
}

// Len returns the number of live entries.
func (t *FlowTable) Len() int { return len(t.vals) }

// Walk visits every live entry in table order.
func (t *FlowTable) Walk(fn func(FlowKey, FlowEntry)) {
	for i, k := range t.keys {
		fn(k, t.vals[i])
	}
}
