package simnet

import "github.com/pcelisp/pcelisp/internal/runtime"

// EventKind discriminates the fixed set of things the simulator can
// schedule. Events are plain structs dispatched through a switch, not
// closures: scheduling one copies a fixed-size value into the queue's
// slab, so the steady-state hot path (packet delivery, protocol timers)
// allocates nothing.
type EventKind uint8

const (
	evNone EventKind = iota
	// evTimer fires a typed timer: h.OnTimer(arg).
	evTimer
	// evArrive drains the pending arrival batch of one iface: every frame
	// queued with an arrival time <= now is delivered FIFO by a single
	// event, amortizing scheduler traffic across a link's per-tick burst
	// (the tail of Iface.transmit).
	evArrive
	// evDeliver loops locally originated packet bytes back into node's
	// receive path without touching a link.
	evDeliver
)

// TimerHandler is the typed-timer callback contract. The canonical
// definition lives in internal/runtime (the sim is one of two engines
// implementing it); the alias keeps every existing simnet-facing
// component compiling unchanged.
type TimerHandler = runtime.TimerHandler

// TimerArg is the fixed-size typed-timer argument block, aliased from
// internal/runtime. See runtime.TimerArg for the field contract (P must
// stay pointer-shaped to keep ScheduleTimer allocation-free).
type TimerArg = runtime.TimerArg

// event is one scheduled occurrence. Events are stored by value in the
// queue's slab, copied in on enqueue and out before dispatch, never
// shared, so no per-event allocation happens in steady state. Its (time,
// sequence) key lives in the queue, not here. The arrival interface
// travels as an index into the node's iface list rather than a second
// pointer to keep those two copies small.
type event struct {
	kind  EventKind
	ifIdx uint16 // evArrive: index of the drained iface in node.ifaces
	node  *Node  // evArrive/evDeliver: receiving node
	data  []byte // evDeliver: packet bytes (evArrive frames ride the batch)
	h     TimerHandler
	arg   TimerArg
}

// funcTimer adapts a plain closure to TimerHandler for the ScheduleFunc
// compatibility shim. Func values are pointer-shaped, so the interface
// conversion itself does not allocate (the closure, if it captures, does
// — which is exactly why hot paths use typed events instead).
type funcTimer func()

// OnTimer implements TimerHandler.
func (f funcTimer) OnTimer(TimerArg) { f() }

// dispatch executes one event. Called by the run loop with s.now already
// advanced to its time.
func (s *Sim) dispatch(e *event) {
	switch e.kind {
	case evArrive:
		s.drainArrivals(e.node.ifaces[e.ifIdx])
	case evDeliver:
		if e.node.failed {
			s.trace(TraceDrop, e.node.name, "node failed", e.data)
			return
		}
		e.node.receive(e.data, nil)
	case evTimer:
		e.h.OnTimer(e.arg)
	}
}

// drainArrivals delivers every batched frame whose arrival time has been
// reached, in FIFO order, replicating the exact per-frame semantics the
// one-event-per-packet design had: a frame arriving while the receiving
// side is down is destroyed and counted in AdminDrops (a cut loses what
// the wire was carrying); a delivered frame books goodput on the
// direction that carried it (the peer's transmit direction).
//
// Reentrancy: delivering a frame can transmit new frames onto this very
// iface (zero-delay forwarding loops), growing arrQ mid-loop — the head
// and length are re-read each iteration, and same-instant appends are
// drained inline (TTL decrements bound the loop). Spurious drains (a
// Delay lowered mid-flight arms a second, earlier drain for the same
// batch) fall through harmlessly and re-arm for whatever head remains.
func (s *Sim) drainArrivals(in *Iface) {
	in.drainArmed = false
	for in.arrHead < len(in.arrQ) && in.arrQ[in.arrHead].at <= s.now {
		data := in.arrQ[in.arrHead].data
		in.arrQ[in.arrHead].data = nil // drop the reference for GC
		in.arrHead++
		if in.down || in.node.failed {
			s.dirs[in.dirIdx].counters.AdminDrops++
			if s.Trace != nil {
				s.trace(TraceDrop, in.node.name, "iface down on "+in.name, data)
			}
			continue
		}
		// rxDirIdx is peer.dirIdx for an intra-sim link and a local mirror
		// direction for a cut link (the peer's arena belongs to another
		// shard; writing into it here would race).
		c := &s.dirs[in.rxDirIdx].counters
		c.DeliveredPackets++
		c.DeliveredBytes += uint64(len(data))
		in.node.receive(data, in)
	}
	if in.arrHead == len(in.arrQ) {
		in.arrQ = in.arrQ[:0]
		in.arrHead = 0
		return
	}
	// Future frames remain: keep exactly one drain armed at the head time
	// (unless a reentrant scheduleArrival already armed one).
	if !in.drainArmed {
		in.drainArmed = true
		in.drainAt = in.arrQ[in.arrHead].at
		s.enqueue(in.drainAt, &event{kind: evArrive, node: in.node, ifIdx: in.idx})
	}
}
