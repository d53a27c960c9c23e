package simnet

import (
	"fmt"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// Route is a forwarding table entry: packets matching the prefix leave
// through Iface. Links are point-to-point, so no next-hop address is
// needed — the peer interface is the next hop.
type Route struct {
	Iface *Iface
}

// SnifferVerdict is returned by bump-in-the-wire inspectors.
type SnifferVerdict int

const (
	// SnifferPass lets the packet continue normal processing.
	SnifferPass SnifferVerdict = iota
	// SnifferConsume swallows the packet; the sniffer has taken over
	// (e.g. PCED replacing a DNS reply with its encapsulated version).
	SnifferConsume
)

// Sniffer inspects every packet traversing a node — delivered or
// forwarded — before normal processing. This is how the paper places PCEs
// "in the data path of the DNS servers" without changing DNS software.
type Sniffer func(d *Delivery) SnifferVerdict

// UDPHandler consumes a locally delivered UDP datagram.
type UDPHandler func(d *Delivery, udp *packet.UDP)

// RawUDPHandler consumes a locally delivered UDP datagram as raw payload
// bytes, without the node decoding layer structs first. Data-plane hot
// paths (LISP decap) register these; handlers that want the decoded view
// can still call d.Packet().
type RawUDPHandler func(d *Delivery, payload []byte)

// LocalHandler consumes locally delivered packets that no UDP handler
// claimed (e.g. TCP segments at end-hosts). Returning false counts the
// packet as unhandled.
type LocalHandler func(d *Delivery) bool

// NodeStats counts per-node packet dispositions.
type NodeStats struct {
	RxPackets       uint64
	TxPackets       uint64
	Forwarded       uint64
	DeliveredLocal  uint64
	SnifferConsumed uint64
	Unhandled       uint64
	NoRoute         uint64
	TTLExpired      uint64
	Malformed       uint64
}

// Node is a simulated network element: host, router, DNS server, xTR or
// PCE, depending on the handlers installed on it.
type Node struct {
	sim      *Sim
	name     string
	ifaces   []*Iface
	addrs    map[netaddr.Addr]*Iface
	addrList []netaddr.Addr
	routes   *netaddr.Trie[Route]
	sniffers []Sniffer
	udp      map[uint16]UDPHandler
	rawUDP   map[uint16]RawUDPHandler
	local    LocalHandler
	joined   []netaddr.Addr

	// rcache is a small direct-mapped memo of recent LookupRoute results:
	// forwarding is per-packet and destinations repeat heavily, while the
	// routing table almost never changes. Invalidated wholesale by
	// AddRoute.
	rcache [routeCacheSize]routeCacheEntry

	// failed marks a crashed node: it neither sends, forwards, delivers
	// nor answers until Recover. Timers still fire (the process state is
	// what failed, not the handlers' bookkeeping).
	failed bool

	// Stats exposes packet counters for experiments.
	Stats NodeStats
}

// Sim returns the simulation the node belongs to.
func (n *Node) Sim() *Sim { return n.sim }

// Name returns the node's unique name.
func (n *Node) Name() string { return n.name }

// String returns the node's name.
func (n *Node) String() string { return n.name }

// Fail crashes the node: every packet it would send, forward or deliver
// is dropped until Recover. Interfaces keep their own administrative
// state, so a recovered node comes back with the same link config.
func (n *Node) Fail() { n.failed = true }

// Recover restores a failed node.
func (n *Node) Recover() { n.failed = false }

// Failed reports whether the node is currently failed.
func (n *Node) Failed() bool { return n.failed }

// AddAddr assigns a host address not bound to any interface (loopback
// style). The first address added — by AddAddr or Iface.SetAddr — becomes
// the node's primary address.
func (n *Node) AddAddr(a netaddr.Addr) {
	n.registerAddr(a, nil)
}

func (n *Node) registerAddr(a netaddr.Addr, ifc *Iface) {
	if !a.IsValid() {
		panic(fmt.Sprintf("simnet: node %s: invalid address", n.name))
	}
	if _, dup := n.addrs[a]; dup {
		panic(fmt.Sprintf("simnet: node %s: address %v assigned twice", n.name, a))
	}
	n.addrs[a] = ifc
	n.addrList = append(n.addrList, a)
}

// Addrs returns the node's addresses in assignment order.
func (n *Node) Addrs() []netaddr.Addr { return n.addrList }

// PrimaryAddr returns the first assigned address, or the zero Addr.
func (n *Node) PrimaryAddr() netaddr.Addr {
	if len(n.addrList) == 0 {
		return 0
	}
	return n.addrList[0]
}

// HasAddr reports whether a is one of the node's addresses.
func (n *Node) HasAddr(a netaddr.Addr) bool {
	_, ok := n.addrs[a]
	return ok
}

// IfaceByAddr returns the interface carrying address a, or nil (also nil
// for loopback-style addresses added with AddAddr).
func (n *Node) IfaceByAddr(a netaddr.Addr) *Iface { return n.addrs[a] }

// SendVia transmits an already-encoded packet out a specific interface,
// bypassing the routing table. Multihomed tunnel routers use it to steer a
// flow onto the provider link matching its engineered source RLOC.
func (n *Node) SendVia(out *Iface, data []byte) {
	if out == nil || out.node != n {
		panic(fmt.Sprintf("simnet: node %s: SendVia foreign interface", n.name))
	}
	n.Stats.TxPackets++
	n.sim.trace(TraceSend, n.name, "", data)
	out.transmit(data)
}

// Ifaces returns the node's interfaces in creation order.
func (n *Node) Ifaces() []*Iface { return n.ifaces }

// routeCacheSize is the number of direct-mapped LookupRoute memo slots.
const routeCacheSize = 8

type routeCacheEntry struct {
	dst   netaddr.Addr
	route Route
	ok    bool
	valid bool
}

// AddRoute installs a forwarding entry.
func (n *Node) AddRoute(p netaddr.Prefix, out *Iface) {
	if out == nil || out.node != n {
		panic(fmt.Sprintf("simnet: node %s: route %v via foreign interface", n.name, p))
	}
	n.routes.Insert(p, Route{Iface: out})
	n.rcache = [routeCacheSize]routeCacheEntry{}
}

// SetDefaultRoute installs 0.0.0.0/0 via out.
func (n *Node) SetDefaultRoute(out *Iface) {
	n.AddRoute(netaddr.PrefixFrom(0, 0), out)
}

// LookupRoute returns the forwarding entry for dst.
func (n *Node) LookupRoute(dst netaddr.Addr) (Route, bool) {
	c := &n.rcache[uint32(dst)&(routeCacheSize-1)]
	if c.valid && c.dst == dst {
		return c.route, c.ok
	}
	r, _, ok := n.routes.Lookup(dst)
	*c = routeCacheEntry{dst: dst, route: r, ok: ok, valid: true}
	return r, ok
}

// Routes exposes the routing table (for topology debugging tools).
func (n *Node) Routes() *netaddr.Trie[Route] { return n.routes }

// AddSniffer installs a bump-in-the-wire inspector. Sniffers run in
// installation order on every packet that touches the node.
func (n *Node) AddSniffer(s Sniffer) { n.sniffers = append(n.sniffers, s) }

// ListenUDP installs the handler for locally addressed UDP datagrams with
// the given destination port. One handler per port.
func (n *Node) ListenUDP(port uint16, h UDPHandler) {
	if _, dup := n.udp[port]; dup {
		panic(fmt.Sprintf("simnet: node %s: UDP port %d bound twice", n.name, port))
	}
	if _, dup := n.rawUDP[port]; dup {
		panic(fmt.Sprintf("simnet: node %s: UDP port %d bound twice", n.name, port))
	}
	n.udp[port] = h
}

// ListenUDPRaw installs a raw handler for locally addressed UDP datagrams
// with the given destination port: the node validates the IPv4/UDP
// framing by peeking the wire bytes and hands the handler the payload
// slice directly, skipping layer-struct decoding entirely. One handler
// per port, shared with the ListenUDP namespace. Datagrams that fail the
// peek validation fall through to the decoding path, so malformed traffic
// is accounted exactly as before.
func (n *Node) ListenUDPRaw(port uint16, h RawUDPHandler) {
	if _, dup := n.udp[port]; dup {
		panic(fmt.Sprintf("simnet: node %s: UDP port %d bound twice", n.name, port))
	}
	if _, dup := n.rawUDP[port]; dup {
		panic(fmt.Sprintf("simnet: node %s: UDP port %d bound twice", n.name, port))
	}
	if n.rawUDP == nil {
		n.rawUDP = map[uint16]RawUDPHandler{}
	}
	n.rawUDP[port] = h
}

// SetLocalHandler installs the fallback handler for locally addressed
// packets that no UDP port handler consumed.
func (n *Node) SetLocalHandler(h LocalHandler) { n.local = h }

// Join subscribes the node to a multicast group. Joining twice is a safe
// no-op on both the group membership and the node's own joined list.
func (n *Node) Join(g netaddr.Addr) {
	n.sim.JoinGroup(g, n)
	if !n.inGroup(g) {
		n.joined = append(n.joined, g)
	}
}

func (n *Node) inGroup(g netaddr.Addr) bool {
	for _, j := range n.joined {
		if j == g {
			return true
		}
	}
	return false
}

// Delivery is a packet being processed at a node, handed to sniffers and
// handlers. The embedded lazy Packet decodes layers on demand. Delivery
// structs are drawn from a per-Sim free list and recycled when the node
// finishes processing, so handlers must not retain a Delivery, its Packet
// view or the *packet.UDP a ListenUDP handler is handed (it lives in the
// Delivery) past their callback. The Data bytes themselves may be kept by
// the handler they were delivered to; a sniffer that passes the frame on
// copies what it needs, because a later sniffer may rewrite it in place.
type Delivery struct {
	// Node is the node processing the packet.
	Node *Node
	// In is the arrival interface (nil for locally originated loopback).
	In *Iface
	// Data is the full packet bytes.
	Data []byte

	pkt *packet.Packet
	udp packet.UDP // the header view a ListenUDP handler is handed
}

// Packet returns the lazily decoded packet view of Data. The view is
// backed by a pooled container that the node recycles when delivery
// processing completes, so handlers must not retain it past their
// callback (individual layer structs remain valid).
func (d *Delivery) Packet() *packet.Packet {
	if d.pkt == nil {
		d.pkt = packet.NewPooledPacket(d.Data, packet.LayerTypeIPv4, packet.LazyNoCopy)
	}
	return d.pkt
}

// recycle returns the decode scratch to the packet pool once the node has
// finished processing the delivery.
func (d *Delivery) recycle() {
	if d.pkt != nil {
		d.pkt.Release()
		d.pkt = nil
	}
}

// IPv4 returns the outer IPv4 header, or nil if malformed.
func (d *Delivery) IPv4() *packet.IPv4 {
	l := d.Packet().Layer(packet.LayerTypeIPv4)
	if l == nil {
		return nil
	}
	ip, _ := l.(*packet.IPv4)
	return ip
}

// Send transmits an IPv4 packet from this node. The destination is read
// from the packet header; the node routes it like any transit packet
// (without TTL decrement — the node is the origin). Send takes ownership
// of data. Multicast destinations are head-end replicated to all group
// members except the sender.
func (n *Node) Send(data []byte) error {
	if n.failed {
		n.sim.trace(TraceDrop, n.name, "node failed", data)
		return nil
	}
	dst, ok := packet.PeekIPv4Dst(data)
	if !ok {
		n.Stats.Malformed++
		return fmt.Errorf("simnet: node %s: Send of malformed packet", n.name)
	}
	n.Stats.TxPackets++
	n.sim.trace(TraceSend, n.name, "", data)
	if dst.IsMulticast() {
		return n.sendMulticast(dst, data)
	}
	return n.dispatch(dst, data, nil)
}

func (n *Node) sendMulticast(g netaddr.Addr, data []byte) error {
	members := n.sim.GroupMembers(g)
	sent := 0
	for _, m := range members {
		if m == n {
			continue
		}
		dst := m.PrimaryAddr()
		if !dst.IsValid() {
			continue
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		if !packet.PatchIPv4Dst(cp, dst) {
			n.Stats.Malformed++
			continue
		}
		if err := n.dispatch(dst, cp, nil); err != nil {
			return err
		}
		sent++
	}
	if sent == 0 && len(members) > 1 {
		return fmt.Errorf("simnet: node %s: multicast %v reached nobody", n.name, g)
	}
	return nil
}

// dispatch routes data toward dst: locally delivered if dst is ours,
// otherwise out the matching interface.
func (n *Node) dispatch(dst netaddr.Addr, data []byte, in *Iface) error {
	if n.HasAddr(dst) {
		// Local destination: deliver through the event queue so handler
		// reentrancy cannot occur.
		n.sim.scheduleLoopback(n, data)
		return nil
	}
	r, ok := n.LookupRoute(dst)
	if !ok {
		n.Stats.NoRoute++
		if n.sim.Trace != nil {
			n.sim.trace(TraceDrop, n.name, "no route to "+dst.String(), data)
		}
		return nil
	}
	r.Iface.transmit(data)
	return nil
}

// receive processes a packet arriving at the node from iface in (nil for
// loopback).
func (n *Node) receive(data []byte, in *Iface) {
	n.Stats.RxPackets++
	dst, ok := packet.PeekIPv4Dst(data)
	if !ok {
		n.Stats.Malformed++
		n.sim.trace(TraceDrop, n.name, "malformed", data)
		return
	}
	d := n.sim.getDelivery()
	d.Node, d.In, d.Data = n, in, data
	defer n.sim.putDelivery(d)
	for _, s := range n.sniffers {
		if s(d) == SnifferConsume {
			n.Stats.SnifferConsumed++
			return
		}
	}
	if n.HasAddr(dst) || (dst.IsMulticast() && n.inGroup(dst)) {
		n.deliverLocal(d)
		return
	}
	n.forward(dst, data)
}

func (n *Node) deliverLocal(d *Delivery) {
	n.Stats.DeliveredLocal++
	n.sim.trace(TraceDeliver, n.name, "", d.Data)
	// The peek validates what the decoders would, so a datagram it refuses
	// can reach no UDP handler: the decoder below only has to tell
	// malformed from unhandled.
	if packet.PeekUDP(d.Data, &d.udp) {
		if h, ok := n.rawUDP[d.udp.DstPort]; ok {
			h(d, d.udp.Payload)
			return
		}
		if h, ok := n.udp[d.udp.DstPort]; ok {
			h(d, &d.udp)
			return
		}
	}
	if d.IPv4() == nil {
		n.Stats.Malformed++
		return
	}
	if n.local != nil && n.local(d) {
		return
	}
	n.Stats.Unhandled++
}

func (n *Node) forward(dst netaddr.Addr, data []byte) {
	if len(data) > 8 && data[8] <= 1 {
		n.Stats.TTLExpired++
		n.sim.trace(TraceDrop, n.name, "TTL expired", data)
		return
	}
	if !packet.PatchIPv4TTL(data) {
		n.Stats.Malformed++
		return
	}
	r, ok := n.LookupRoute(dst)
	if !ok {
		n.Stats.NoRoute++
		if n.sim.Trace != nil {
			n.sim.trace(TraceDrop, n.name, "no route to "+dst.String(), data)
		}
		return
	}
	n.Stats.Forwarded++
	n.sim.trace(TraceForward, n.name, "", data)
	r.Iface.transmit(data)
}

// SendUDP builds and sends an IPv4/UDP packet carrying the given
// application layers. This is the workhorse used by every control-plane
// implementation in the repository. The frame is born with the tail-room
// an ITR on its path encapsulates it in.
func (n *Node) SendUDP(src, dst netaddr.Addr, sport, dport uint16, app ...packet.SerializableLayer) error {
	return n.Send(runtime.EncodeUDPRoom(packet.EncapTemplateLen, src, dst, sport, dport, app...))
}
