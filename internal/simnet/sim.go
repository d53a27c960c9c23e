// Package simnet is a deterministic discrete-event network simulator. It
// provides a virtual clock, an event queue, nodes with addressed
// interfaces, point-to-point links with propagation delay, transmission
// rate and drop-tail queues, static IPv4 longest-prefix-match forwarding,
// and head-end-replicated multicast groups.
//
// Every packet that crosses a link is a real encoded byte slice produced
// by internal/packet — protocol code cannot take shortcuts around the wire
// format, which is what lets the same control-plane code run over real UDP
// sockets in cmd/lispd (internal/overlay carries these very frames).
//
// The event core is closure-free: packet hops and protocol timers are
// typed events (EventKind plus a fixed-size argument block) stored by
// value in one (time, sequence)-ordered runtime.Queue — the queue the
// real-time runtime.Loop keeps its timers in — so steady-state scheduling
// allocates nothing. ScheduleFunc/AtFunc remain as a compatibility shim
// for tests and cold-path scenario scripting, at the cost of one closure
// allocation per call.
//
// Determinism: all behaviour derives from the scenario seed via Rand();
// events scheduled for the same instant fire in scheduling order. Two runs
// of the same scenario produce byte-identical metric output; the ordering
// itself is property-tested against a naive model (sched_test.go).
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// Time is virtual time since simulation start.
type Time = time.Duration

// Sim is a discrete-event simulation instance. Sim is not safe for
// concurrent use: the event loop is strictly single-threaded, which is
// what makes runs reproducible.
type Sim struct {
	now Time
	// queue holds every pending event under its (time, seq) key; seq is
	// the scheduling counter that makes same-time events fire FIFO.
	queue   runtime.Queue[event]
	seq     uint64
	rng     *rand.Rand
	nodes   map[string]*Node
	order   []*Node // deterministic iteration order
	groups  map[netaddr.Addr][]*Node
	stopped bool

	// worldSeed is the seed of the logical world this Sim belongs to. For
	// a standalone Sim it equals the New seed; for a shard it is the
	// ShardedSim's root seed, identical across every shard. Per-direction
	// loss RNGs derive from it (not from the shard-local rng) so loss
	// sequences do not depend on how the world was partitioned.
	worldSeed int64
	// shard/shardIdx identify this Sim within a ShardedSim (shard is nil
	// for a standalone Sim). shardIdx is part of the deterministic
	// exchange-buffer sort key for frames crossing shard boundaries.
	shard    *ShardedSim
	shardIdx int

	// staged holds frames transmitted on cut links (Iface.foreign) during
	// the current epoch, awaiting injection into their target shard at the
	// next barrier. stageSeq is the per-shard tiebreak of the exchange
	// sort key (send time, source shard, sequence).
	staged   []stagedFrame
	stageSeq uint64

	// dirs is the link-direction arena: every Connect appends its two
	// directions here, and Ifaces hold indexes into it. Keeping the hot
	// per-link state (config, busy horizon, counters) in one contiguous
	// slice makes the per-tick counter walks cache-friendly and spares an
	// allocation per direction.
	dirs []linkDir

	// freeDeliveries recycles Delivery scratch between packet receives;
	// Sim is single-threaded, so a plain stack suffices.
	freeDeliveries []*Delivery

	// Trace, when non-nil, receives a TraceEvent for every packet
	// milestone. Used by examples/quickstart to print the steps 1-8
	// timeline, and by tests to assert paths.
	Trace func(ev TraceEvent)
}

// New creates a simulation seeded for deterministic randomness.
func New(seed int64) *Sim {
	return &Sim{
		rng:       rand.New(rand.NewSource(seed)),
		worldSeed: seed,
		nodes:     make(map[string]*Node),
		groups:    make(map[netaddr.Addr][]*Node),
	}
}

// enqueue queues *e to fire at absolute time t, after everything already
// queued for t.
func (s *Sim) enqueue(t Time, e *event) {
	s.seq++
	s.queue.Push(t, s.seq, e)
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// ScheduleTimer arms a typed timer firing h.OnTimer(arg) after delay d
// (clamped to >= 0). This is the allocation-free way to schedule work:
// the handler is an interface pair and arg a fixed-size value, both
// copied into the queue's slab.
func (s *Sim) ScheduleTimer(d Time, h TimerHandler, arg TimerArg) {
	if d < 0 {
		d = 0
	}
	s.TimerAt(s.now+d, h, arg)
}

// TimerAt arms a typed timer at absolute virtual time t (clamped to now).
func (s *Sim) TimerAt(t Time, h TimerHandler, arg TimerArg) {
	if t < s.now {
		t = s.now
	}
	s.enqueue(t, &event{kind: evTimer, h: h, arg: arg})
}

// ScheduleFunc runs fn after delay d (clamped to >= 0). Compatibility
// shim for tests and cold-path scenario scripting ONLY: each call
// allocates the closure it captures, and a closure cannot ride the
// runtime seam to the real-time daemon. The protocol packages (lisp,
// core, irc, mapsys, dnssim) have zero call sites — they arm timers
// exclusively through runtime.Runtime.ScheduleTimer with typed
// handlers; keep it that way. The remaining users are the scenario
// scripts in internal/experiments, cmd/experiments -scenario and
// examples/multihoming-te, where one allocation per scripted event is
// irrelevant and a typed handler per script would only add code.
func (s *Sim) ScheduleFunc(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.AtFunc(s.now+d, fn)
}

// AtFunc runs fn at absolute virtual time t (clamped to now). See
// ScheduleFunc for the allocation caveat.
func (s *Sim) AtFunc(t Time, fn func()) {
	s.TimerAt(t, funcTimer(fn), TimerArg{})
}

// scheduleArrival appends a frame arriving at to's node at absolute time
// t to the interface's pending batch — the typed tail of Iface.transmit.
// One drain event per batch replaces one event per frame: the common case
// (arrival times per direction are monotone non-decreasing) is a plain
// append plus, at most, arming a drain; only a Delay lowered mid-flight
// pays a sorted insert.
func (s *Sim) scheduleArrival(t Time, to *Iface, data []byte) {
	if t < s.now {
		t = s.now
	}
	q := to.arrQ
	if h := to.arrHead; len(q) == cap(q) && h > 0 && h >= cap(q)/2 {
		// A link that never idles never takes drainArrivals' reset: move
		// the live tail over the drained prefix instead of growing. Only
		// when the slice is full and at least half drained, so the copy
		// amortises to O(1) per frame.
		n := copy(q, q[h:])
		clear(q[n:])
		q, to.arrHead = q[:n], 0
	}
	if n := len(q); n > to.arrHead && q[n-1].at > t {
		// Rare out-of-order arrival: keep the batch sorted by time, FIFO
		// within a time (insert after any equal-time frames).
		i := n
		for i > to.arrHead && q[i-1].at > t {
			i--
		}
		q = append(q, arrFrame{})
		copy(q[i+1:], q[i:n])
		q[i] = arrFrame{at: t, data: data}
		to.arrQ = q
	} else {
		to.arrQ = append(q, arrFrame{at: t, data: data})
	}
	if !to.drainArmed || t < to.drainAt {
		to.drainArmed = true
		to.drainAt = t
		s.enqueue(t, &event{kind: evArrive, node: to.node, ifIdx: to.idx})
	}
}

// scheduleLoopback enqueues local delivery of a locally originated packet
// through the event queue, so handler reentrancy cannot occur.
func (s *Sim) scheduleLoopback(n *Node, data []byte) {
	s.enqueue(s.now, &event{kind: evDeliver, node: n, data: data})
}

// Stop makes Run return after the current event.
func (s *Sim) Stop() { s.stopped = true }

// Run processes events until the queue drains or Stop is called. It
// returns the number of events processed.
func (s *Sim) Run() int { return s.RunUntil(1<<62 - 1) }

// RunFor processes events for a span of virtual time from now.
func (s *Sim) RunFor(d Time) int { return s.RunUntil(s.now + d) }

// RunUntil processes events with timestamps <= deadline, advancing the
// clock to deadline if the queue drains earlier.
func (s *Sim) RunUntil(deadline Time) int {
	s.stopped = false
	n := 0
	for !s.stopped {
		at, next := s.queue.Peek()
		if next == nil || at > deadline {
			break
		}
		// Copy out before pop: the slab slot is recycled immediately, and
		// the event's own scheduling can reuse it.
		e := *next
		s.queue.Pop()
		s.now = at
		s.dispatch(&e)
		n++
	}
	if !s.stopped && s.now < deadline && deadline < 1<<62-1 {
		s.now = deadline
	}
	return n
}

// nextEventTime returns the timestamp of the earliest queued event, or
// (0, false) when the queue is empty. The shard coordinator uses it to
// size epochs without popping anything.
func (s *Sim) nextEventTime() (Time, bool) {
	at, e := s.queue.Peek()
	return at, e != nil
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return s.queue.Len() }

// getDelivery draws Delivery scratch from the free list.
func (s *Sim) getDelivery() *Delivery {
	if k := len(s.freeDeliveries); k > 0 {
		d := s.freeDeliveries[k-1]
		s.freeDeliveries[k-1] = nil
		s.freeDeliveries = s.freeDeliveries[:k-1]
		return d
	}
	return &Delivery{}
}

// putDelivery recycles Delivery scratch once the node finished processing
// it. Handlers must not retain the Delivery past their callback.
func (s *Sim) putDelivery(d *Delivery) {
	d.recycle()
	*d = Delivery{}
	s.freeDeliveries = append(s.freeDeliveries, d)
}

// NewNode creates and registers a named node. Names must be unique; the
// topology builders guarantee this, so duplicates panic.
func (s *Sim) NewNode(name string) *Node {
	if _, dup := s.nodes[name]; dup {
		panic(fmt.Sprintf("simnet: node %q created twice", name))
	}
	n := &Node{
		sim:    s,
		name:   name,
		addrs:  make(map[netaddr.Addr]*Iface),
		routes: netaddr.NewTrie[Route](),
		udp:    make(map[uint16]UDPHandler),
	}
	s.nodes[name] = n
	s.order = append(s.order, n)
	return n
}

// Node returns the node registered under name, or nil.
func (s *Sim) Node(name string) *Node { return s.nodes[name] }

// Nodes returns all nodes in creation order.
func (s *Sim) Nodes() []*Node { return s.order }

// JoinGroup subscribes n to multicast group g (must be 224.0.0.0/4).
// Joining is idempotent: a node already in the group is not added again,
// so a double join cannot cause double delivery. Delivery is head-end
// replication: the sending node unicasts one copy toward each member,
// patching the outer destination — behaviourally equivalent to
// intra-domain multicast for the ETR synchronization the paper uses,
// without modelling multicast routing state.
func (s *Sim) JoinGroup(g netaddr.Addr, n *Node) {
	if !g.IsMulticast() {
		panic(fmt.Sprintf("simnet: %v is not a multicast group", g))
	}
	for _, m := range s.groups[g] {
		if m == n {
			return
		}
	}
	s.groups[g] = append(s.groups[g], n)
}

// LeaveGroup removes n from group g. Leaving a group the node never
// joined (or leaving twice) is a safe no-op.
func (s *Sim) LeaveGroup(g netaddr.Addr, n *Node) {
	members := s.groups[g]
	for i, m := range members {
		if m == n {
			s.groups[g] = append(members[:i:i], members[i+1:]...)
			return
		}
	}
}

// GroupMembers returns the members of g in join order.
func (s *Sim) GroupMembers(g netaddr.Addr) []*Node { return s.groups[g] }

// TraceEventKind classifies trace events.
type TraceEventKind int

// Trace event kinds.
const (
	// TraceSend is a packet leaving a node.
	TraceSend TraceEventKind = iota
	// TraceDeliver is a packet arriving at its final node.
	TraceDeliver
	// TraceForward is a packet transiting a node.
	TraceForward
	// TraceDrop is a packet lost (queue overflow, TTL, no route, ...).
	TraceDrop
)

// String names the kind.
func (k TraceEventKind) String() string {
	switch k {
	case TraceSend:
		return "send"
	case TraceDeliver:
		return "deliver"
	case TraceForward:
		return "forward"
	case TraceDrop:
		return "drop"
	default:
		return "?"
	}
}

// TraceEvent describes one packet milestone for the optional Trace hook.
// Data is the live frame, valid during the callback only: nodes down the
// path patch and encapsulate it in place.
type TraceEvent struct {
	At     Time
	Kind   TraceEventKind
	Node   string
	Reason string
	Data   []byte
}

func (s *Sim) trace(kind TraceEventKind, node, reason string, data []byte) {
	if s.Trace != nil {
		s.Trace(TraceEvent{At: s.now, Kind: kind, Node: node, Reason: reason, Data: data})
	}
}
