// Package runtime defines the execution contract the protocol core
// (internal/lisp, internal/core, internal/irc) is written against: a
// monotonic clock with a typed-timer scheduler, and a host that can emit
// and receive IPv4/UDP frames. Two implementations exist:
//
//   - the deterministic discrete-event engine (*simnet.Sim / *simnet.Node),
//     which satisfies these interfaces unchanged — the simulator's
//     byte-identity and zero-alloc guarantees are part of this contract;
//   - a real-time engine (Loop + the overlay host in internal/overlay)
//     backed by Go timers and net.UDPConn, used by cmd/lispd.
//
// The protocol state machines hold a Runtime and a Host and never import
// simnet directly (CI lints the import graph); each component has one
// constructor taking the pair, so the simulator and the daemon run the
// same code. Everything else (packet codecs, address types) is shared
// between both worlds already. The pull mapping systems in internal/mapsys
// are still simulator-bound.
package runtime

import (
	"math/rand"
	"sync"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
)

// Time is a monotonic instant measured from an arbitrary per-runtime
// origin (simulation start, daemon start).
type Time = time.Duration

// TimerHandler is the typed-timer callback. A component implements it
// once and discriminates its own timers via TimerArg.Kind, so arming a
// timer stores an interface pair (type, receiver pointer) instead of
// allocating a fresh closure per event.
type TimerHandler interface {
	OnTimer(arg TimerArg)
}

// TimerArg is the fixed-size argument block carried by a typed timer.
// All fields are optional; their meaning belongs to the handler.
//
// P must only hold pointer-shaped values (pointers, funcs, maps): those
// are stored directly in the interface word, keeping ScheduleTimer
// allocation-free. Boxing a plain struct or int into P would allocate.
type TimerArg struct {
	// Kind discriminates between a handler's different timers. A handler
	// with a single timer may reuse it as a second small numeric payload
	// (a generation counter, say).
	Kind int32
	// N is a numeric payload (an address, a bucket index, a nonce...).
	N int64
	// S is a string payload (a DNS qname...). String headers copy without
	// allocating.
	S string
	// P is a pointer payload (a pending-request struct...).
	P any
}

// Rand is the runtime's deterministic random stream. Both engines back
// it with math/rand and an explicit seed, so the same seed yields the
// same draw sequence in sim and real time — RNG draw order is part of
// the determinism contract the differential tests rely on.
type Rand = *rand.Rand

// Runtime is the clock + scheduler half of the contract. *simnet.Sim
// implements it natively; Loop implements it over Go timers. All methods
// must be called from the runtime's own event context (timer callbacks,
// packet handlers, or posted thunks) — neither implementation is safe
// for bare cross-goroutine use.
type Runtime interface {
	// Now returns the current monotonic time.
	Now() Time
	// Rand returns the runtime's seeded random stream.
	Rand() Rand
	// ScheduleTimer arms h.OnTimer(arg) to fire after delay d.
	ScheduleTimer(d Time, h TimerHandler, arg TimerArg)
	// TimerAt arms h.OnTimer(arg) to fire at absolute time t.
	TimerAt(t Time, h TimerHandler, arg TimerArg)
}

// Egress is an opaque handle to a host egress port (a *simnet.Iface in
// the simulator, nil in the single-socket overlay host). The protocol
// layer only stores and passes it back; a nil Egress means "route by
// destination".
type Egress = any

// Verdict is a frame sniffer's decision, numerically identical to
// simnet.SnifferVerdict so the sim adapter is a plain conversion.
type Verdict uint8

const (
	// VerdictPass lets the frame continue to the next sniffer / delivery.
	VerdictPass Verdict = iota
	// VerdictConsume swallows the frame.
	VerdictConsume
)

// FrameSniffer inspects a raw IPv4 frame traversing the host and either
// passes or consumes it. Sniffers run in registration order. The host
// owns data: the overlay host hands out a recycled buffer and rewrites it
// as soon as the frame has been handled, so a sniffer (consuming or not)
// that needs bytes afterwards — to queue the frame, or to verify a
// decoded message later — copies them before it returns. It may pass
// data, or a sub-slice, to Host.Output during the call. A consuming
// sniffer takes the frame, spare capacity included, and may rewrite it
// in place (the ITR encapsulates in the tail-room); a passing one leaves
// it as it found it.
type FrameSniffer func(data []byte) Verdict

// UDPHandler receives a decoded UDP datagram addressed to a bound
// (addr, port). src/dst are the outer IPv4 addresses; udp, its payload
// view and anything decoded from it without copying (a message's
// Contents, its auth data) belong to the host like a sniffer's data and
// are only valid for the duration of the call.
type UDPHandler func(src, dst netaddr.Addr, udp *packet.UDP)

// RawUDPHandler receives the raw payload of a UDP datagram without layer
// decoding — the data-plane fast path (LISP encap on port 4341). outer is
// the full outer frame; payload aliases into it. Both belong to the host
// like a sniffer's data.
type RawUDPHandler func(outer []byte, payload []byte)

// Host is the datagram-endpoint half of the contract: one addressable
// entity that owns a set of IPv4 addresses, can emit full IPv4 frames,
// and dispatches inbound traffic to bound handlers and sniffers. The
// simulator's *simnet.Node implements it; internal/overlay implements it
// over one real UDP socket.
type Host interface {
	// HostName identifies the host in traces and events.
	HostName() string
	// HasAddr reports whether a is one of the host's own addresses.
	HasAddr(a netaddr.Addr) bool

	// EgressByAddr returns the egress handle carrying address a, or nil
	// (an untyped nil — callers compare with ==) when none does or the
	// host has no per-egress structure.
	EgressByAddr(a netaddr.Addr) Egress
	// AddrUp reports whether the egress carrying a is administratively
	// and physically up. Hosts without link state report HasAddr(a).
	AddrUp(a netaddr.Addr) bool
	// RouteUp reports whether the host currently has a usable (routed,
	// link-up) path toward dst.
	RouteUp(dst netaddr.Addr) bool

	// Output transmits a full IPv4 frame, routing by its destination
	// header. The caller gives up data and its spare capacity, and the
	// contents are undefined afterwards: the simulator queues the slice
	// itself on a link, and on either host a sniffer down the path may
	// rewrite the frame into its tail-room. The overlay host keeps no
	// reference — it has written or copied the bytes when Output returns
	// — which is what lets a handler pass it a slice of the frame it was
	// handed.
	Output(data []byte) error
	// OutputVia transmits a full IPv4 frame out a specific egress handle
	// previously obtained from EgressByAddr.
	OutputVia(e Egress, data []byte)
	// OutputUDP serializes and sends an IPv4/UDP datagram and returns the
	// number of frame bytes emitted (for stats).
	OutputUDP(src, dst netaddr.Addr, sport, dport uint16, app ...packet.SerializableLayer) int

	// BindUDP registers h for UDP datagrams to (addr, port). An invalid
	// addr binds the port on every host address (the simulator, whose
	// nodes hold one protocol role each, always binds this way). Binding
	// the same (addr, port) twice panics: it is a wiring bug.
	BindUDP(addr netaddr.Addr, port uint16, h UDPHandler)
	// BindUDPRaw registers the undecoded fast-path handler for a port.
	BindUDPRaw(port uint16, h RawUDPHandler)
	// AddFrameSniffer appends a sniffer to the host's inspection chain.
	AddFrameSniffer(s FrameSniffer)
	// JoinGroup subscribes the host to a multicast group (best effort —
	// the overlay host has no multicast fabric and treats it as a no-op).
	JoinGroup(g netaddr.Addr)
}

// EncodeUDP serializes an IPv4/UDP frame with computed lengths and
// checksums around the given application layers. Both the simulator and
// the overlay host emit frames in exactly this shape, which is what makes
// sim and real wire bytes directly comparable. The frame is exact
// (cap == len); hosts sending one of their own use EncodeUDPRoom.
func EncodeUDP(src, dst netaddr.Addr, sport, dport uint16, app ...packet.SerializableLayer) []byte {
	return EncodeUDPRoom(0, src, dst, sport, dport, app...)
}

// udpScratch is the header pair and layer list of one EncodeUDPRoom call.
// Pooled, not per-runtime: shards and runner cells encode concurrently.
type udpScratch struct {
	ip     packet.IPv4
	udp    packet.UDP
	layers []packet.SerializableLayer
}

var udpScratchPool = sync.Pool{New: func() any { return new(udpScratch) }}

// EncodeUDPRoom is EncodeUDP with room bytes of spare capacity behind the
// frame (see packet.SerializeRoom); the frame is its only allocation.
func EncodeUDPRoom(room int, src, dst netaddr.Addr, sport, dport uint16, app ...packet.SerializableLayer) []byte {
	s := udpScratchPool.Get().(*udpScratch)
	s.ip = packet.IPv4{TTL: packet.DefaultTTL, Protocol: packet.IPProtocolUDP, SrcIP: src, DstIP: dst}
	s.udp = packet.UDP{SrcPort: sport, DstPort: dport}
	s.udp.SetNetworkLayerForChecksum(&s.ip)
	s.layers = append(s.layers[:0], &s.ip, &s.udp)
	for _, l := range app {
		if l != nil { // tolerate "no payload" call sites
			s.layers = append(s.layers, l)
		}
	}
	data := packet.SerializeRoom(room, s.layers...)
	clear(s.layers) // the pool must not pin the caller's layers
	udpScratchPool.Put(s)
	return data
}
