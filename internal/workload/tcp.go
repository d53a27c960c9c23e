// Package workload generates the traffic the experiments measure: a
// minimal but faithful TCP connection model (SYN / SYN-ACK / ACK with RFC
// 6298 initial-RTO retransmission — the mechanism that makes LISP's
// dropped first packets so expensive), constant-rate UDP pumps for the TE
// experiments, and the classic generator distributions (Poisson arrivals,
// Zipf destination popularity, Pareto flow sizes).
package workload

import (
	"fmt"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

// DefaultInitialRTO is the RFC 6298 initial retransmission timeout.
const DefaultInitialRTO = time.Second

// connKey identifies a TCP connection endpoint-pair at one host.
type connKey struct {
	peer          netaddr.Addr
	local, remote uint16
}

// TCPHostStats counts per-host TCP activity.
type TCPHostStats struct {
	SynSent        uint64
	SynRetransmits uint64
	SynAckSent     uint64
	Established    uint64
	Aborted        uint64
	DataSegments   uint64
	DataReceived   uint64
}

// TCPHost attaches a minimal TCP endpoint to a simulated host: it can
// listen (answer SYNs with SYN-ACKs and count data) and connect (send
// SYNs with exponential-backoff retransmission until established).
type TCPHost struct {
	node *simnet.Node
	addr netaddr.Addr

	// InitialRTO is the first SYN retransmission timeout (default 1s).
	InitialRTO simnet.Time
	// MaxSynRetries bounds retransmissions before giving up (default 5).
	MaxSynRetries int

	listeners map[uint16]bool
	conns     map[connKey]*tcpConn
	nextPort  uint16

	// Serialization scratch reused across segments: the Sim is single-
	// threaded and packet.Serialize copies everything into its output
	// buffer, so rebuilding headers in place avoids per-segment
	// allocations on the data hot path.
	synScratch packet.TCP
	segScratch packet.TCP
	ipScratch  packet.IPv4
	payScratch packet.Payload
	layScratch [3]packet.SerializableLayer
	payload    []byte // zero-filled data payload, grown on demand

	// Stats counts activity.
	Stats TCPHostStats
}

// tcpConn is the client-side connection state.
type tcpConn struct {
	key         connKey
	established bool
	retries     int
	gen         int
	started     simnet.Time
	synSentAt   simnet.Time
	onOpen      func(ConnResult)
}

// ConnResult reports a finished connection attempt.
type ConnResult struct {
	// OK is true when the handshake completed.
	OK bool
	// Elapsed is the time from Connect to established (client side).
	Elapsed simnet.Time
	// Retransmits counts SYN retransmissions.
	Retransmits int
}

// NewTCPHost attaches TCP behaviour to a host node.
func NewTCPHost(node *simnet.Node, addr netaddr.Addr) *TCPHost {
	h := &TCPHost{
		node:          node,
		addr:          addr,
		InitialRTO:    DefaultInitialRTO,
		MaxSynRetries: 5,
		listeners:     make(map[uint16]bool),
		conns:         make(map[connKey]*tcpConn),
		nextPort:      32768,
	}
	node.SetLocalHandler(h.handle)
	return h
}

// Addr returns the host's address.
func (h *TCPHost) Addr() netaddr.Addr { return h.addr }

// Listen accepts connections on a port.
func (h *TCPHost) Listen(port uint16) { h.listeners[port] = true }

// Connect starts a TCP handshake to addr:port and calls onOpen exactly
// once with the outcome.
func (h *TCPHost) Connect(addr netaddr.Addr, port uint16, onOpen func(ConnResult)) {
	h.nextPort++
	key := connKey{peer: addr, local: h.nextPort, remote: port}
	c := &tcpConn{key: key, started: h.node.Sim().Now(), onOpen: onOpen}
	h.conns[key] = c
	h.sendSyn(c)
}

func (h *TCPHost) sendSyn(c *tcpConn) {
	c.gen++
	c.synSentAt = h.node.Sim().Now()
	h.Stats.SynSent++
	h.synScratch = packet.TCP{SYN: true, Seq: 1}
	h.sendSegment(c.key.peer, c.key.local, c.key.remote, &h.synScratch, nil)
	rto := h.InitialRTO << uint(c.retries) // exponential backoff
	h.node.Sim().ScheduleTimer(rto, h, simnet.TimerArg{P: c, N: int64(c.gen)})
}

// OnTimer implements simnet.TimerHandler: the SYN retransmission timeout.
// TimerArg.P holds the connection, TimerArg.N the generation the timer
// was armed for; a stale generation means the SYN was already superseded.
func (h *TCPHost) OnTimer(arg simnet.TimerArg) {
	c := arg.P.(*tcpConn)
	cur, ok := h.conns[c.key]
	if !ok || cur != c || c.established || c.gen != int(arg.N) {
		return
	}
	c.retries++
	if c.retries > h.MaxSynRetries {
		delete(h.conns, c.key)
		h.Stats.Aborted++
		c.onOpen(ConnResult{OK: false, Elapsed: h.node.Sim().Now() - c.started, Retransmits: c.retries - 1})
		return
	}
	h.Stats.SynRetransmits++
	h.sendSyn(c)
}

// SendData transmits n data segments of segSize bytes on an established
// connection path (fire-and-forget; the receiver counts them).
func (h *TCPHost) SendData(peer netaddr.Addr, localPort, remotePort uint16, n, segSize int) {
	if cap(h.payload) < segSize {
		h.payload = make([]byte, segSize)
	}
	payload := h.payload[:segSize]
	for i := 0; i < n; i++ {
		h.Stats.DataSegments++
		h.segScratch = packet.TCP{ACK: true, PSH: true, Seq: uint32(2 + i)}
		h.sendSegment(peer, localPort, remotePort, &h.segScratch, payload)
	}
}

func (h *TCPHost) sendSegment(dst netaddr.Addr, sport, dport uint16, seg *packet.TCP, payload []byte) {
	h.ipScratch = packet.IPv4{TTL: packet.DefaultTTL, Protocol: packet.IPProtocolTCP, SrcIP: h.addr, DstIP: dst}
	seg.SrcPort, seg.DstPort = sport, dport
	seg.Window = 65535
	seg.SetNetworkLayerForChecksum(&h.ipScratch)
	layers := h.layScratch[:2]
	layers[0], layers[1] = &h.ipScratch, seg
	if len(payload) > 0 {
		h.payScratch = packet.Payload(payload)
		layers = h.layScratch[:3]
		layers[2] = &h.payScratch
	}
	h.node.Send(packet.SerializeRoom(packet.EncapTemplateLen, layers...))
}

func (h *TCPHost) handle(d *simnet.Delivery) bool {
	// Established-flow fast path: a data segment (ACK set, SYN clear,
	// payload present) only needs counting, so peek the wire bytes and
	// skip layer decoding. Handshake segments and anything the peek
	// cannot validate fall through to the full decoder below, which
	// behaves exactly as before.
	if flags, payloadLen, ok := packet.PeekTCPSegment(d.Data); ok {
		if flags&0x02 == 0 && flags&0x10 != 0 && payloadLen > 0 {
			h.Stats.DataReceived++
			return true
		}
	}
	l := d.Packet().Layer(packet.LayerTypeTCP)
	if l == nil {
		return false
	}
	seg := l.(*packet.TCP)
	src := d.IPv4().SrcIP
	switch {
	case seg.SYN && !seg.ACK:
		if !h.listeners[seg.DstPort] {
			return true // silently ignore; RSTs add nothing to the claims
		}
		h.Stats.SynAckSent++
		h.segScratch = packet.TCP{SYN: true, ACK: true, Seq: 1, Ack: seg.Seq + 1}
		h.sendSegment(src, seg.DstPort, seg.SrcPort, &h.segScratch, nil)
	case seg.SYN && seg.ACK:
		key := connKey{peer: src, local: seg.DstPort, remote: seg.SrcPort}
		c, ok := h.conns[key]
		if !ok || c.established {
			return true
		}
		c.established = true
		h.Stats.Established++
		h.segScratch = packet.TCP{ACK: true, Seq: 2, Ack: seg.Seq + 1}
		h.sendSegment(src, seg.DstPort, seg.SrcPort, &h.segScratch, nil)
		c.onOpen(ConnResult{
			OK:          true,
			Elapsed:     h.node.Sim().Now() - c.started,
			Retransmits: c.retries,
		})
	case seg.ACK && len(seg.LayerPayload()) > 0:
		h.Stats.DataReceived++
	}
	return true
}

// Pump sends UDP datagrams from a node at a constant bit rate toward a
// destination — the elephant-flow generator for the TE experiments.
type Pump struct {
	node    *simnet.Node
	src     netaddr.Addr
	dst     netaddr.Addr
	dport   uint16
	payload packet.Payload // passed by address: boxing the slice would allocate per datagram
	period  simnet.Time
	stopped bool

	// Sent counts datagrams.
	Sent uint64
}

// NewPump builds a pump sending rateBps toward dst:dport in packets of
// pktBytes (default 1000).
func NewPump(node *simnet.Node, src, dst netaddr.Addr, dport uint16, rateBps int64, pktBytes int) *Pump {
	if pktBytes <= 0 {
		pktBytes = 1000
	}
	if rateBps <= 0 {
		panic(fmt.Sprintf("workload: pump rate %d", rateBps))
	}
	period := simnet.Time(float64(pktBytes*8) / float64(rateBps) * float64(time.Second))
	if period <= 0 {
		period = time.Microsecond
	}
	return &Pump{
		node: node, src: src, dst: dst, dport: dport,
		payload: make(packet.Payload, pktBytes), period: period,
	}
}

// Start begins pumping until Stop (keeps the event queue alive).
func (p *Pump) Start() {
	p.stopped = false
	p.tick()
}

func (p *Pump) tick() {
	if p.stopped {
		return
	}
	p.Sent++
	p.node.SendUDP(p.src, p.dst, 40000, p.dport, &p.payload)
	p.node.Sim().ScheduleTimer(p.period, p, simnet.TimerArg{})
}

// OnTimer implements simnet.TimerHandler: the generator tick.
func (p *Pump) OnTimer(simnet.TimerArg) { p.tick() }

// Stop halts the pump at the next tick.
func (p *Pump) Stop() { p.stopped = true }
