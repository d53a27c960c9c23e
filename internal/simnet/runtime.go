package simnet

// This file adapts the simulator to the internal/runtime contract: *Sim
// is a runtime.Runtime as-is (Now/Rand/ScheduleTimer/TimerAt already
// match), and *Node gains the runtime.Host method set as thin wrappers
// over its native API. The wrappers add no behavior — the protocol layer
// driven through them schedules the exact same events in the exact same
// order as before the seam existed, which is what keeps the byte-identity
// and zero-alloc guards green.

import (
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

var (
	_ runtime.Runtime = (*Sim)(nil)
	_ runtime.Host    = (*Node)(nil)
)

// EncodeUDP is runtime.EncodeUDP under its simulator-era name: one frame
// encoder serves both engines, which keeps sim and real wire bytes equal.
func EncodeUDP(src, dst netaddr.Addr, sport, dport uint16, app ...packet.SerializableLayer) []byte {
	return runtime.EncodeUDP(src, dst, sport, dport, app...)
}

// HostName implements runtime.Host.
func (n *Node) HostName() string { return n.name }

// EgressByAddr returns the interface carrying a as an opaque egress
// handle. The nil case must be returned as an untyped nil — boxing a nil
// *Iface into the Egress interface would defeat callers' == nil checks.
func (n *Node) EgressByAddr(a netaddr.Addr) runtime.Egress {
	if ifc := n.IfaceByAddr(a); ifc != nil {
		return ifc
	}
	return nil
}

// AddrUp reports whether the interface carrying a exists and its link is
// bidirectionally up.
func (n *Node) AddrUp(a netaddr.Addr) bool {
	ifc := n.IfaceByAddr(a)
	return ifc != nil && ifc.LinkUp()
}

// RouteUp reports whether dst currently resolves to a route whose egress
// link is up.
func (n *Node) RouteUp(dst netaddr.Addr) bool {
	r, ok := n.LookupRoute(dst)
	return ok && r.Iface.LinkUp()
}

// Output implements runtime.Host over Send.
func (n *Node) Output(data []byte) error { return n.Send(data) }

// OutputVia transmits out a specific egress handle (a *Iface obtained
// from EgressByAddr).
func (n *Node) OutputVia(e runtime.Egress, data []byte) { n.SendVia(e.(*Iface), data) }

// OutputUDP builds, sends and measures an IPv4/UDP datagram.
func (n *Node) OutputUDP(src, dst netaddr.Addr, sport, dport uint16, app ...packet.SerializableLayer) int {
	data := runtime.EncodeUDPRoom(packet.EncapTemplateLen, src, dst, sport, dport, app...)
	n.Send(data)
	return len(data)
}

// BindUDP implements runtime.Host. Sim nodes host one protocol role
// each, so the addr qualifier is not needed to disambiguate and every
// bind behaves as a wildcard bind on the port (the overlay host, where
// several roles share one socket, keys on (addr, port)).
func (n *Node) BindUDP(addr netaddr.Addr, port uint16, h runtime.UDPHandler) {
	_ = addr
	n.ListenUDP(port, func(d *Delivery, udp *packet.UDP) {
		src, _ := packet.PeekIPv4Src(d.Data)
		dst, _ := packet.PeekIPv4Dst(d.Data)
		h(src, dst, udp)
	})
}

// BindUDPRaw implements runtime.Host over the undecoded fast path.
func (n *Node) BindUDPRaw(port uint16, h runtime.RawUDPHandler) {
	n.ListenUDPRaw(port, func(d *Delivery, payload []byte) { h(d.Data, payload) })
}

// AddFrameSniffer implements runtime.Host. The verdict enums are
// numerically identical by contract.
func (n *Node) AddFrameSniffer(s runtime.FrameSniffer) {
	n.AddSniffer(func(d *Delivery) SnifferVerdict { return SnifferVerdict(s(d.Data)) })
}

// JoinGroup implements runtime.Host over Join.
func (n *Node) JoinGroup(g netaddr.Addr) { n.Join(g) }
