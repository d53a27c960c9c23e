package overlay

import (
	"bytes"
	"encoding/binary"
	"net"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/obs"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

var (
	selfAddr   = netaddr.MustParseAddr("10.9.0.1")
	clientAddr = netaddr.MustParseAddr("10.9.1.1")
)

// startedHost is testHost with selfAddr owned, the socket reader running
// and a client socket connected to it.
func startedHost(t *testing.T) (*Host, *net.UDPConn, func() []string) {
	t.Helper()
	h, _, logs := testHost(t)
	h.AddAddr(selfAddr)
	conn, err := net.DialUDP("udp4", nil, h.RealAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return h, conn, logs
}

// seqFrame is a frame to selfAddr:port whose payload is size bytes
// derived from seq, so every frame is distinct and checkable.
func seqFrame(port uint16, seq uint32, size int) []byte {
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(seq + uint32(i)*7)
	}
	binary.BigEndian.PutUint32(payload, seq)
	return runtime.EncodeUDP(clientAddr, selfAddr, 4000, port, packet.Payload(payload))
}

// frameLog collects copies of the frames a handler was given.
type frameLog struct {
	mu     sync.Mutex
	frames [][]byte
}

func (l *frameLog) add(outer, _ []byte) {
	l.mu.Lock()
	l.frames = append(l.frames, bytes.Clone(outer))
	l.mu.Unlock()
}

func (l *frameLog) snapshot() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][]byte(nil), l.frames...)
}

// waitUntil polls cond for up to d and reports whether it came true.
func waitUntil(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// TestOverlayOverloadBoundedAndCounted: with the loop stuck, four caps'
// worth of datagrams must cost at most a cap's worth of buffers, the rest
// must be counted as dropped and logged once, and the host must deliver
// again as soon as the loop turns.
func TestOverlayOverloadBoundedAndCounted(t *testing.T) {
	h, conn, logs := startedHost(t)
	const port, size = 4001, 1200
	var log frameLog
	h.BindUDPRaw(port, log.add)
	h.Start()

	const sent = 4 * maxInflight
	frames := make([][]byte, sent+1) // built up front: the heap check below must see only the host's memory
	for seq := range frames {
		frames[seq] = seqFrame(port, uint32(seq), size)
	}

	parked, release := make(chan struct{}), make(chan struct{})
	h.loop.Post(func() { close(parked); <-release })
	<-parked
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark() // a failed check must not leave the loop stuck for Cleanup's Stop

	goruntime.GC()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)

	maxSeen := 0
	for seq := 0; seq < sent; seq++ {
		if _, err := conn.Write(frames[seq]); err != nil {
			t.Fatal(err)
		}
		if seq%16 == 15 {
			// Let the reader catch up so the kernel's socket buffer, which
			// holds far fewer than a cap, drops as little as possible.
			waitUntil(20*time.Millisecond, func() bool {
				return uint64(h.Inflight())+h.Stats().RxDropped > uint64(seq)
			})
		}
		maxSeen = max(maxSeen, h.Inflight())
	}
	waitUntil(time.Second, func() bool { return h.Stats().RxDropped > 0 })
	h.poolMu.Lock()
	made := h.made
	h.poolMu.Unlock()
	if maxSeen > maxInflight || made > maxInflight {
		t.Fatalf("in flight %d, buffers made %d: cap is %d", maxSeen, made, maxInflight)
	}
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	if grew, limit := int64(after.HeapAlloc)-int64(before.HeapAlloc), int64(maxInflight*frameSize+1<<20); grew > limit {
		t.Fatalf("heap grew %d bytes holding %d frames of %d sent; want at most cap x buffer + slack = %d", grew, h.Inflight(), sent, limit)
	}

	unpark()
	if !waitUntil(5*time.Second, func() bool { return h.Inflight() == 0 }) {
		t.Fatal("the queue did not drain after the loop was released")
	}
	loopSync(h) // the drop note was posted behind the frames
	delivered := log.snapshot()
	dropped := h.Stats().RxDropped
	if dropped == 0 || uint64(len(delivered))+dropped > sent {
		t.Fatalf("delivered %d + dropped %d of %d sent: want drops, and no more than was sent", len(delivered), dropped, sent)
	}
	for _, got := range delivered {
		_, _, payload, _ := packet.PeekUDPPayload(got)
		if want := frames[binary.BigEndian.Uint32(payload)]; !bytes.Equal(got, want) {
			t.Fatalf("a delivered frame differs from what was sent:\n got % x\nwant % x", got[:64], want[:64])
		}
	}
	var dropLines int
	for _, l := range logs() {
		if strings.Contains(l, "receive queue full") {
			dropLines++
		}
	}
	if dropLines != 1 {
		t.Fatalf("%d drop log lines, want exactly 1:\n%v", dropLines, logs())
	}

	// Recovery: the next frame goes through untouched.
	n := len(delivered)
	last := frames[sent]
	if _, err := conn.Write(last); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(5*time.Second, func() bool { return h.Stats().RxFrames > uint64(n) }) {
		t.Fatal("no frame delivered after the overload")
	}
	loopSync(h)
	if delivered = log.snapshot(); len(delivered) != n+1 || !bytes.Equal(delivered[n], last) {
		t.Fatalf("frame after the overload not delivered byte-identical (%d delivered, want %d)", len(delivered), n+1)
	}
	if got := h.Stats().RxDropped; got != dropped {
		t.Fatalf("RxDropped moved %d -> %d with the queue empty", dropped, got)
	}
}

// TestOverlayOversizeFrameDelivered: a datagram larger than a pooled
// buffer is delivered whole, and its one-off buffer gives its place in
// the cap back.
func TestOverlayOversizeFrameDelivered(t *testing.T) {
	h, conn, _ := startedHost(t)
	const port = 4001
	got := make(chan []byte, 1)
	h.BindUDPRaw(port, func(outer, _ []byte) { got <- bytes.Clone(outer) })
	h.Start()
	big := seqFrame(port, 1, 3*frameSize)
	if _, err := conn.Write(big); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-got:
		if !bytes.Equal(f, big) {
			t.Fatalf("oversize frame truncated or altered: %d bytes, want %d", len(f), len(big))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("oversize frame not delivered")
	}
	loopSync(h)
	h.poolMu.Lock()
	defer h.poolMu.Unlock()
	if h.made != 0 || len(h.free) != 0 {
		t.Fatalf("after a lone oversize frame: made=%d free=%d, want 0 and 0 (one-off buffers are not pooled)", h.made, len(h.free))
	}
}

// TestOverlaySelfOutputSurvivesRecycling: a raw-bind handler Outputs a
// self-addressed sub-slice of the frame it was handed — what XTR.DecapFrame
// does with the inner packet. The looped-back frame is handled after the
// handler returned and its buffer went back to the pool, so Output must
// have copied: the handler overwrites the frame once Output returns, as
// the next datagram read into the recycled buffer would, and later frames
// keep arriving through the same pool.
func TestOverlaySelfOutputSurvivesRecycling(t *testing.T) {
	h, conn, _ := startedHost(t)
	const tunnelPort, innerPort, n = 4341, 4002, 3 * recycleBatch
	h.BindUDPRaw(tunnelPort, func(outer, payload []byte) {
		if err := h.Output(payload); err != nil {
			t.Error(err)
		}
		for i := range outer {
			outer[i] = 0xEE
		}
	})
	var log frameLog
	h.BindUDPRaw(innerPort, log.add)
	h.Start()

	var inners [][]byte
	for seq := uint32(0); seq < n; seq++ {
		inner := seqFrame(innerPort, seq, 64)
		inners = append(inners, inner)
		outer := runtime.EncodeUDP(clientAddr, selfAddr, tunnelPort, tunnelPort, packet.Payload(inner))
		if _, err := conn.Write(outer); err != nil {
			t.Fatal(err)
		}
		waitUntil(time.Second, func() bool { return h.Stats().RxFrames+h.Stats().RxDropped >= uint64(2*seq+1) })
	}
	if !waitUntil(5*time.Second, func() bool { return h.Stats().RxFrames == 2*n }) {
		t.Fatalf("RxFrames = %d, want %d (each datagram plus its looped-back inner frame)", h.Stats().RxFrames, 2*n)
	}
	delivered := log.snapshot()
	if len(delivered) != n {
		t.Fatalf("%d inner frames delivered, want %d", len(delivered), n)
	}
	for i := range delivered {
		if !bytes.Equal(delivered[i], inners[i]) {
			t.Fatalf("looped-back frame %d corrupted:\n got % x\nwant % x", i, delivered[i], inners[i])
		}
	}
}

// TestOverlayRxZeroAlloc is the exact gate behind fwd_small's
// allocs_per_op: a datagram from the socket to a raw-bind handler on a
// started, fully observed host allocates nothing — not in the reader, not
// in the hand-off, not in the loop.
func TestOverlayRxZeroAlloc(t *testing.T) {
	loop := runtime.NewLoop(1)
	h, err := New("h1", loop, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	h.RegisterMetrics(reg)
	loop.RegisterMetrics(reg)
	h.AddAddr(selfAddr)
	hits := make(chan struct{}, 1)
	h.BindUDPRaw(4001, func(_, _ []byte) { hits <- struct{}{} })
	loop.Start()
	h.Start()
	defer loop.Stop()
	defer h.Close()
	conn, err := net.DialUDP("udp4", nil, h.RealAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	frame := seqFrame(4001, 1, 64)
	roundTrip := func() {
		if _, err := conn.Write(frame); err != nil {
			t.Error(err)
			return
		}
		<-hits
	}
	for i := 0; i < 100; i++ {
		roundTrip() // make the buffer, size the posted queue
	}
	if got := testing.AllocsPerRun(2000, roundTrip); got != 0 {
		t.Fatalf("socket -> raw-bind handler allocates %v per frame, want 0", got)
	}
}

// TestOverlayForwardZeroAlloc is the exact gate behind fwd_small's
// allocs_per_op on the ITR side: a datagram from the socket, intercepted
// by a real xTR with the flow pinned, encapsulated and written to the
// peer socket allocates nothing. The pooled rx buffer is the frame's
// tail-room, so the outer header is written into it
// (pcelisp_xtr_encap_copies_total stays 0) and the bytes on the wire are
// the template's.
func TestOverlayForwardZeroAlloc(t *testing.T) {
	var (
		eidSpace  = netaddr.MustParsePrefix("100.0.0.0/8")
		localEIDs = netaddr.MustParsePrefix("100.1.0.0/16")
		es, ed    = netaddr.MustParseAddr("100.1.0.5"), netaddr.MustParseAddr("100.2.0.9")
		rlocA     = netaddr.MustParseAddr("10.0.0.1")
		rlocB     = netaddr.MustParseAddr("10.1.0.1")
	)
	loop := runtime.NewLoop(1)
	h, err := New("h1", loop, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	h.RegisterMetrics(reg)
	loop.RegisterMetrics(reg)
	h.AddAddr(rlocA)
	sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	h.SetPeer(netaddr.PrefixFrom(rlocB, 32), sink.LocalAddr().(*net.UDPAddr))
	x := lisp.NewXTR(loop, h, lisp.XTRConfig{RLOC: rlocA, LocalEIDs: localEIDs, EIDSpace: eidSpace, Obs: reg})
	x.InstallFlow(es, ed, rlocA, rlocB, 300)
	loop.Start()
	h.Start()
	defer loop.Stop()
	defer h.Close()
	conn, err := net.DialUDP("udp4", nil, h.RealAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	inner := runtime.EncodeUDP(es, ed, 4000, 4001, packet.Payload(bytes.Repeat([]byte{0x5a}, 64)))
	got := make([]byte, frameSize)
	n := 0
	roundTrip := func() {
		if _, err := conn.Write(inner); err != nil {
			t.Error(err)
			return
		}
		if n, err = sink.Read(got); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 100; i++ {
		roundTrip() // make the buffer, size the posted queue, build the template
	}
	if per := testing.AllocsPerRun(2000, roundTrip); per != 0 {
		t.Fatalf("socket -> intercept -> encap -> socket allocates %v per frame, want 0", per)
	}
	outer := got[:n]
	nonce := uint32(outer[29])<<16 | uint32(outer[30])<<8 | uint32(outer[31])
	want := packet.NewEncapTemplate(rlocA, rlocB, packet.PortLISPData, packet.PortLISPData).Encap(inner, nonce)
	if !bytes.Equal(outer, want) {
		t.Fatalf("forwarded frame is not the template encapsulation of the inner:\n got % x\nwant % x", outer, want)
	}
	st := x.Stats()
	if st.EncapPackets != 2101 || st.EncapCopies != 0 || h.Stats().TxFrames != 2101 {
		t.Fatalf("EncapPackets=%d (want 2101) EncapCopies=%d (want 0) TxFrames=%d (want 2101)",
			st.EncapPackets, st.EncapCopies, h.Stats().TxFrames)
	}
	if v, ok := reg.Value("pcelisp_xtr_encap_copies_total", obs.Label{Key: "node", Value: "h1"}); !ok || v != 0 {
		t.Fatalf("pcelisp_xtr_encap_copies_total = %v (registered %v), want 0", v, ok)
	}
}
