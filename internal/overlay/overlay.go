// Package overlay implements runtime.Host over one real UDP socket: the
// daemon's data and control planes ride full IPv4/UDP frames — the exact
// bytes runtime.EncodeUDP and the encap templates produce — carried as
// payloads between daemon sockets. Keeping the inner frames bit-identical
// to the simulator's wire format is what lets the differential tests
// compare sim and real traces, and lets the e2e tests check encap output
// against the packet codec goldens.
//
// One Host carries every protocol role of a daemon (xTR, PCE, DNS front
// end), which is why bindings are keyed by (address, port) where a sim
// node — one role per node — keys by port alone. Frames whose destination
// is not a host address are routed by longest-prefix match over the peer
// table to another socket (another daemon, or a test harness acting as an
// end host).
package overlay

import (
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/obs"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// hostCounters is the host's one counter list: the pcelisp_overlay_*
// series, live as obs.Counter cells (atomic, so a scraping admin endpoint
// reads them without posting to the loop) and snapshotted as Stats.
type hostCounters[T any] struct {
	RxFrames      T `metric:"rx_frames_total" help:"Frames received by the host socket (including loopback deliveries)."`
	RxDropped     T `metric:"rx_dropped_total" help:"Inbound frames dropped because the host already had its cap of frames in flight to the loop."`
	TxFrames      T `metric:"tx_frames_total" help:"Frames forwarded to a peer socket."`
	TxErrors      T `metric:"tx_errors_total" help:"Frames dropped because the socket write to the peer failed."`
	Consumed      T `metric:"consumed_total" help:"Frames consumed by a sniffer (PCE bump-in-the-wire)."`
	NoRoute       T `metric:"no_route_drops_total" help:"Frames dropped with no local bind and no peer route."`
	Unhandled     T `metric:"unhandled_total" help:"Local frames with no matching binding."`
	Malformed     T `metric:"decode_errors_total" help:"Frames dropped because IPv4/UDP decoding failed."`
	MulticastDrop T `metric:"multicast_drops_total" help:"Outbound multicast frames dropped (no multicast fabric)."`
}

// Stats is a snapshot of host activity; read it via Host.Stats.
type Stats = hostCounters[uint64]

// hostMetrics is the live set: the counters plus the one gauge.
type hostMetrics struct {
	hostCounters[obs.Counter]
	RxInflight obs.Gauge `metric:"rx_inflight" help:"Frames handed to the loop and not yet handled."`
}

const (
	// frameSize is the pooled buffer size, above any frame that crosses a
	// 1500-byte path. A larger datagram is still delivered whole, in a
	// buffer of its own that is not recycled.
	frameSize = 2048
	// maxInflight caps the frame buffers one host may have out of its free
	// list, so the memory between socket and loop is at most maxInflight ×
	// frameSize however far the loop falls behind; buffers are made on
	// demand, so a loop that keeps up holds only its peak in flight.
	maxInflight = 1024
	// recycleBatch is how many handled buffers the loop collects before it
	// returns them under one lock (sooner when its queue runs empty).
	recycleBatch = 32
)

// rxFrame is one inbound frame on its way to the loop. cap(data) is
// frameSize for a pooled buffer and larger for a one-off. run is the
// frame's own handle method, bound once when the buffer is made: posting
// it costs a recycled buffer no closure.
type rxFrame struct {
	h    *Host
	data []byte
	run  func()
}

type bindKey struct {
	addr netaddr.Addr // invalid = wildcard
	port uint16
}

// Host is the real-time runtime.Host. Protocol callbacks (bindings,
// sniffers, timer handlers) all run on the owning Loop's goroutine, so
// the protocol layer needs no locking — the same execution model the
// simulator provides.
type Host struct {
	name string
	loop *runtime.Loop
	conn *net.UDPConn

	// mu guards addrs and peers, the two tables Reload/SetPeer may touch
	// from outside the loop. Bindings and sniffers are registered during
	// setup, before Start, and are read-only afterwards.
	mu    sync.RWMutex
	addrs map[netaddr.Addr]struct{}
	peers *netaddr.Trie[*net.UDPAddr]

	sniffers []runtime.FrameSniffer
	binds    map[bindKey]runtime.UDPHandler
	rawBinds map[uint16]runtime.RawUDPHandler

	started   atomic.Bool
	stopOnce  sync.Once
	closeOnce sync.Once
	readDone  chan struct{}

	// Ingress buffers (see enqueue). poolMu guards free and made; done is
	// confined to the loop goroutine.
	poolMu    sync.Mutex
	free      []*rxFrame
	made      int // buffers in existence, pooled or one-off: at most maxInflight
	done      []*rxFrame
	dropNoted atomic.Bool  // the first ingress drop has been noted for logging
	dropSrc   netaddr.Addr // its inner source; written before the note is posted

	met hostMetrics

	// Logf, when set before Start, replaces log.Printf for the host's
	// once-per-source drop diagnostics (tests capture it).
	Logf func(format string, args ...any)

	// dropLogged dedups drop diagnostics: one log line per (reason,
	// address) pair, bounded so a spoofed-source flood cannot grow it
	// without limit. Loop-goroutine confined, like the drop paths.
	dropLogged map[dropKey]struct{}
}

// dropKey names one logged drop cause: the frame's inner source for
// receive-side drops, its inner destination for failed socket writes.
type dropKey struct {
	reason string
	addr   netaddr.Addr
}

// maxDropLogSources bounds dropLogged; past it, drops are still counted
// but no longer logged for new sources.
const maxDropLogSources = 1024

// New binds a host socket on listen (e.g. "127.0.0.1:0") attached to the
// given loop. Call AddAddr/SetPeer/Bind*/AddFrameSniffer, then Start.
func New(name string, loop *runtime.Loop, listen string) (*Host, error) {
	la, err := net.ResolveUDPAddr("udp4", listen)
	if err != nil {
		return nil, fmt.Errorf("overlay: resolve %q: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp4", la)
	if err != nil {
		return nil, fmt.Errorf("overlay: bind %q: %w", listen, err)
	}
	return &Host{
		name:       name,
		loop:       loop,
		conn:       conn,
		addrs:      make(map[netaddr.Addr]struct{}),
		peers:      netaddr.NewTrie[*net.UDPAddr](),
		binds:      make(map[bindKey]runtime.UDPHandler),
		rawBinds:   make(map[uint16]runtime.RawUDPHandler),
		readDone:   make(chan struct{}),
		dropLogged: make(map[dropKey]struct{}),
	}, nil
}

// Stats returns a snapshot of the host's counters.
func (h *Host) Stats() Stats { return obs.Snapshot[Stats](&h.met.hostCounters) }

// Inflight reports how many frames are queued for the loop right now.
func (h *Host) Inflight() int { return int(h.met.RxInflight.Load()) }

// RegisterMetrics publishes the host's counters on r under
// pcelisp_overlay_* with a node label. Call before Start.
func (h *Host) RegisterMetrics(r *obs.Registry) {
	r.RegisterSet("pcelisp_overlay_", &h.met, obs.Label{Key: "node", Value: h.name})
}

// logDrop emits one diagnostic line per (reason, source) pair — a silent
// NoRoute++ hid a whole class of misconfigured peer tables, while
// per-frame logging would melt under a flood.
func (h *Host) logDrop(reason string, data []byte) {
	src, _ := packet.PeekIPv4Src(data) // invalid addr = "unparseable source"
	h.logDropOnce(reason, "from", src)
}

// logDropOnce is the bounded dedup behind every drop diagnostic; dir says
// whether addr is where the dropped frames came "from" or were headed "to".
func (h *Host) logDropOnce(reason, dir string, addr netaddr.Addr) {
	k := dropKey{reason: reason, addr: addr}
	if _, seen := h.dropLogged[k]; seen || len(h.dropLogged) >= maxDropLogSources {
		return
	}
	h.dropLogged[k] = struct{}{}
	logf := h.Logf
	if logf == nil {
		logf = log.Printf
	}
	logf("overlay %s: dropping frames %s %v: %s (further such drops counted but not logged)", h.name, dir, addr, reason)
}

// RealAddr returns the socket's real address (for peering other hosts).
func (h *Host) RealAddr() *net.UDPAddr { return h.conn.LocalAddr().(*net.UDPAddr) }

// AddAddr declares a an address owned by this host.
func (h *Host) AddAddr(a netaddr.Addr) {
	h.mu.Lock()
	h.addrs[a] = struct{}{}
	h.mu.Unlock()
}

// SetPeer routes frames destined into p to the socket at ra. Longest
// prefix wins, so a broad "remote domain" route and a narrow "this client
// host" route compose.
func (h *Host) SetPeer(p netaddr.Prefix, ra *net.UDPAddr) {
	h.mu.Lock()
	h.peers.Insert(p, ra)
	h.mu.Unlock()
}

// PeerRoute is one peer-table entry, as reported by Peers.
type PeerRoute struct {
	Prefix   string `json:"prefix"`
	Endpoint string `json:"endpoint"`
}

// Peers snapshots the peer table (the admin endpoint's /statusz view).
func (h *Host) Peers() []PeerRoute {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var out []PeerRoute
	h.peers.Walk(func(p netaddr.Prefix, ra *net.UDPAddr) bool {
		out = append(out, PeerRoute{Prefix: p.String(), Endpoint: ra.String()})
		return true
	})
	return out
}

// Start launches the socket reader. Frames are copied off the read buffer
// and posted to the loop, so every protocol callback runs serialized.
func (h *Host) Start() {
	if !h.started.CompareAndSwap(false, true) {
		return
	}
	go h.readLoop()
}

// StopReading stops the socket reader and waits for it to exit; the
// socket stays open for writes, so the loop can finish what was already
// read. Close calls it.
func (h *Host) StopReading() {
	h.stopOnce.Do(func() {
		if h.started.Load() {
			// A deadline in the past fails the blocked read; if setting it
			// fails the socket is closed and the reader is exiting anyway.
			h.conn.SetReadDeadline(time.Unix(1, 0))
			<-h.readDone
		}
	})
}

// Close stops the reader and shuts the socket. The loop keeps running (it
// may serve other hosts); stop it separately.
func (h *Host) Close() error {
	h.StopReading()
	var err error
	h.closeOnce.Do(func() { err = h.conn.Close() })
	return err
}

func (h *Host) readLoop() {
	defer close(h.readDone)
	buf := make([]byte, 64*1024)
	for {
		n, _, err := h.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // stopped, closed, or a fatal socket error
		}
		h.enqueue(buf[:n])
	}
}

// enqueue hands one inbound frame to the loop: the bytes are copied into
// a recycled buffer and the buffer's pre-bound handler is posted, so a
// frame costs neither an allocation nor a closure. With maxInflight
// buffers out the newest frame is dropped and counted — an overloaded
// daemon sheds load by count, it does not grow. Any goroutine may call it.
func (h *Host) enqueue(data []byte) {
	f := h.takeFrame(len(data))
	if f == nil {
		h.met.RxDropped.Inc()
		if h.dropNoted.CompareAndSwap(false, true) {
			h.dropSrc, _ = packet.PeekIPv4Src(data)
			h.loop.Post(h.logRxDrop) // the drop log is loop-confined
		}
		return
	}
	f.data = append(f.data[:0], data...)
	h.met.RxInflight.Add(1)
	h.loop.Post(f.run)
}

func (h *Host) logRxDrop() {
	h.logDropOnce(fmt.Sprintf("receive queue full (%d frames in flight)", maxInflight), "from", h.dropSrc)
}

// takeFrame returns a buffer for an n-byte frame, or nil at the cap.
func (h *Host) takeFrame(n int) *rxFrame {
	h.poolMu.Lock()
	defer h.poolMu.Unlock()
	if last := len(h.free) - 1; last >= 0 && n <= frameSize {
		f := h.free[last]
		h.free = h.free[:last]
		return f
	}
	if h.made == maxInflight {
		return nil
	}
	h.made++
	f := &rxFrame{h: h, data: make([]byte, 0, max(n, frameSize))}
	f.run = f.handle
	return f
}

// handle runs on the loop goroutine: the frame goes through its host's
// receive, then the buffer is recycled. Nothing downstream may keep the
// bytes (the FrameSniffer/UDPHandler contract). Handled buffers go back
// in batches, so recycling adds a lock per batch, not per frame.
func (f *rxFrame) handle() {
	h := f.h
	h.receive(f.data)
	h.done = append(h.done, f)
	if h.met.RxInflight.Add(-1) == 0 || len(h.done) == recycleBatch {
		h.poolMu.Lock()
		for _, d := range h.done {
			if cap(d.data) == frameSize {
				h.free = append(h.free, d)
			} else {
				h.made--
			}
		}
		h.poolMu.Unlock()
		clear(h.done)
		h.done = h.done[:0]
	}
}

// receive handles one inbound frame on the loop goroutine: sniffers
// first (ingress inspection — the PCE's bump-in-the-wire placement), then
// local delivery or peer forwarding.
func (h *Host) receive(data []byte) {
	h.met.RxFrames.Inc()
	for _, s := range h.sniffers {
		if s(data) == runtime.VerdictConsume {
			h.met.Consumed.Inc()
			return
		}
	}
	dst, ok := packet.PeekIPv4Dst(data)
	if !ok {
		h.met.Malformed.Inc()
		h.logDrop("frame decode failure", data)
		return
	}
	if h.HasAddr(dst) {
		h.deliver(dst, data)
		return
	}
	// Transit: the sniffers already inspected this frame; route it on
	// without a second pass (the sim equivalent is a router node's
	// forwarding path).
	h.forward(dst, data)
}

// deliver dispatches a local frame to its binding: raw fast path first
// (LISP data port), then decoded (addr, port) bindings with wildcard
// fallback — mirroring simnet.Node.deliverLocal.
func (h *Host) deliver(dst netaddr.Addr, data []byte) {
	if len(h.rawBinds) != 0 {
		if _, dport, payload, ok := packet.PeekUDPPayload(data); ok {
			if rh, ok := h.rawBinds[dport]; ok {
				rh(data, payload)
				return
			}
		}
	}
	pk := packet.NewPacket(data, packet.LayerTypeIPv4, packet.NoCopy)
	ipl := pk.Layer(packet.LayerTypeIPv4)
	if ipl == nil {
		h.met.Malformed.Inc()
		h.logDrop("frame decode failure", data)
		return
	}
	ip := ipl.(*packet.IPv4)
	if ip.Protocol != packet.IPProtocolUDP {
		h.met.Unhandled.Inc()
		return
	}
	udpl := pk.Layer(packet.LayerTypeUDP)
	if udpl == nil {
		h.met.Malformed.Inc()
		h.logDrop("frame decode failure", data)
		return
	}
	udp := udpl.(*packet.UDP)
	if bh, ok := h.binds[bindKey{addr: dst, port: udp.DstPort}]; ok {
		bh(ip.SrcIP, ip.DstIP, udp)
		return
	}
	if bh, ok := h.binds[bindKey{port: udp.DstPort}]; ok {
		bh(ip.SrcIP, ip.DstIP, udp)
		return
	}
	h.met.Unhandled.Inc()
}

// forward routes a frame to the peer owning its destination.
func (h *Host) forward(dst netaddr.Addr, data []byte) {
	h.mu.RLock()
	ra, _, ok := h.peers.Lookup(dst)
	h.mu.RUnlock()
	if !ok {
		h.met.NoRoute.Inc()
		h.logDrop("no peer route", data)
		return
	}
	if _, err := h.conn.WriteToUDP(data, ra); err != nil {
		h.met.TxErrors.Inc()
		h.logDropOnce("socket write failed: "+err.Error(), "to", dst)
		return
	}
	h.met.TxFrames.Inc()
}

// HostName implements runtime.Host.
func (h *Host) HostName() string { return h.name }

// HasAddr implements runtime.Host.
func (h *Host) HasAddr(a netaddr.Addr) bool {
	h.mu.RLock()
	_, ok := h.addrs[a]
	h.mu.RUnlock()
	return ok
}

// EgressByAddr implements runtime.Host. The single-socket host has no
// per-egress structure; everything routes by destination.
func (h *Host) EgressByAddr(netaddr.Addr) runtime.Egress { return nil }

// AddrUp implements runtime.Host: a real socket has no per-address link
// state, so an owned address is an up address.
func (h *Host) AddrUp(a netaddr.Addr) bool { return h.HasAddr(a) }

// RouteUp implements runtime.Host: reachable means local or peered.
func (h *Host) RouteUp(dst netaddr.Addr) bool {
	if h.HasAddr(dst) {
		return true
	}
	h.mu.RLock()
	_, _, ok := h.peers.Lookup(dst)
	h.mu.RUnlock()
	return ok
}

// Output implements runtime.Host. Locally addressed frames loop back
// through the posted receive path (so sniffers inspect them exactly once,
// like the sim's evDeliver loopback), copied as a socket read is, because
// data may alias the received frame being handled. Outbound frames pass
// the sniffer chain as egress inspection — that is where a co-located
// PCED sees its DNS front end's authoritative replies leaving the daemon
// — and are then written to a peer before Output returns. Either way the
// host keeps no reference to data, so the caller may reuse the buffer —
// not its contents, which a sniffer may have rewritten in place.
func (h *Host) Output(data []byte) error {
	dst, ok := packet.PeekIPv4Dst(data)
	if !ok {
		h.met.Malformed.Inc()
		h.logDrop("frame decode failure", data)
		return fmt.Errorf("overlay: malformed frame")
	}
	if dst.IsMulticast() {
		// No multicast fabric: daemons run with an invalid group so the
		// control plane unicasts instead; anything else is dropped.
		h.met.MulticastDrop.Inc()
		return nil
	}
	if h.HasAddr(dst) {
		h.enqueue(data)
		return nil
	}
	for _, s := range h.sniffers {
		if s(data) == runtime.VerdictConsume {
			h.met.Consumed.Inc()
			return nil
		}
	}
	h.forward(dst, data)
	return nil
}

// OutputVia implements runtime.Host; with no egress structure it is
// Output.
func (h *Host) OutputVia(_ runtime.Egress, data []byte) { h.Output(data) }

// OutputUDP implements runtime.Host.
func (h *Host) OutputUDP(src, dst netaddr.Addr, sport, dport uint16, app ...packet.SerializableLayer) int {
	data := runtime.EncodeUDPRoom(packet.EncapTemplateLen, src, dst, sport, dport, app...)
	h.Output(data)
	return len(data)
}

// BindUDP implements runtime.Host. An invalid addr is the port wildcard.
func (h *Host) BindUDP(addr netaddr.Addr, port uint16, fn runtime.UDPHandler) {
	k := bindKey{addr: addr, port: port}
	if _, dup := h.binds[k]; dup {
		panic(fmt.Sprintf("overlay: duplicate bind %v:%d on %s", addr, port, h.name))
	}
	h.binds[k] = fn
}

// BindUDPRaw implements runtime.Host.
func (h *Host) BindUDPRaw(port uint16, fn runtime.RawUDPHandler) {
	if _, dup := h.rawBinds[port]; dup {
		panic(fmt.Sprintf("overlay: duplicate raw bind :%d on %s", port, h.name))
	}
	h.rawBinds[port] = fn
}

// AddFrameSniffer implements runtime.Host.
func (h *Host) AddFrameSniffer(s runtime.FrameSniffer) {
	h.sniffers = append(h.sniffers, s)
}

// JoinGroup implements runtime.Host: no multicast fabric, best-effort
// no-op. Daemon configs use an invalid group so the PCE unicasts pushes.
func (h *Host) JoinGroup(netaddr.Addr) {}

var _ runtime.Host = (*Host)(nil)
