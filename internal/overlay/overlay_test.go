package overlay

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/obs"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// testHost builds a started loop + host pair with a log capture hook and
// a metrics registry wired in.
func testHost(t *testing.T) (*Host, *obs.Registry, func() []string) {
	t.Helper()
	loop := runtime.NewLoop(1)
	h, err := New("h1", loop, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	h.Logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	reg := obs.NewRegistry()
	h.RegisterMetrics(reg)
	loop.Start()
	t.Cleanup(func() { h.Close(); loop.Stop() })
	return h, reg, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), lines...)
	}
}

// sync waits until every previously posted thunk has run.
func loopSync(h *Host) {
	done := make(chan struct{})
	h.loop.Post(func() { close(done) })
	<-done
}

// TestNoRouteDropCountedAndLoggedOnce is the regression test for the
// silent-drop bug: frames with no local bind and no peer route must be
// counted (Stats and registry) and logged exactly once per source.
func TestNoRouteDropCountedAndLoggedOnce(t *testing.T) {
	h, reg, logs := testHost(t)

	srcA := netaddr.MustParseAddr("10.0.0.1")
	srcB := netaddr.MustParseAddr("10.0.0.2")
	dst := netaddr.MustParseAddr("192.0.2.1") // not owned, no peer route
	frameA := runtime.EncodeUDP(srcA, dst, 4000, 4001)
	frameB := runtime.EncodeUDP(srcB, dst, 4000, 4001)

	for i := 0; i < 3; i++ {
		h.loop.Post(func() { h.receive(frameA) })
	}
	h.loop.Post(func() { h.receive(frameB) })
	loopSync(h)

	if got := h.Stats().NoRoute; got != 4 {
		t.Fatalf("NoRoute = %d, want 4", got)
	}
	if v, ok := reg.Value("pcelisp_overlay_no_route_drops_total", obs.Label{Key: "node", Value: "h1"}); !ok || v != 4 {
		t.Fatalf("registry no_route_drops = %v, %v; want 4, true", v, ok)
	}
	var aLines, bLines int
	for _, l := range logs() {
		if !strings.Contains(l, "no peer route") {
			t.Fatalf("unexpected log line %q", l)
		}
		if strings.Contains(l, srcA.String()) {
			aLines++
		}
		if strings.Contains(l, srcB.String()) {
			bLines++
		}
	}
	if aLines != 1 || bLines != 1 {
		t.Fatalf("drop log lines: srcA=%d srcB=%d, want exactly 1 each\n%v", aLines, bLines, logs())
	}
}

// TestDecodeFailureCounted: undecodable frames must hit the decode-error
// counter (they used to be counted only on some paths) and log once.
func TestDecodeFailureCounted(t *testing.T) {
	h, reg, logs := testHost(t)

	junk := []byte{0x45, 0x00, 0x01} // truncated IPv4 header
	h.loop.Post(func() { h.receive(junk) })
	h.loop.Post(func() { h.receive(junk) })
	loopSync(h)

	if got := h.Stats().Malformed; got != 2 {
		t.Fatalf("Malformed = %d, want 2", got)
	}
	if v, ok := reg.Value("pcelisp_overlay_decode_errors_total", obs.Label{Key: "node", Value: "h1"}); !ok || v != 2 {
		t.Fatalf("registry decode_errors = %v, %v; want 2, true", v, ok)
	}
	var decodeLines int
	for _, l := range logs() {
		if strings.Contains(l, "decode failure") {
			decodeLines++
		}
	}
	if decodeLines != 1 {
		t.Fatalf("decode-failure log lines = %d, want 1 (once per source)\n%v", decodeLines, logs())
	}
}

// TestDropLogBounded: a spoofed-source flood must not grow the log-dedup
// table past its bound, while the drop counter keeps counting.
func TestDropLogBounded(t *testing.T) {
	h, _, logs := testHost(t)

	dst := netaddr.MustParseAddr("192.0.2.1")
	const flood = maxDropLogSources + 100
	h.loop.Post(func() {
		for i := 0; i < flood; i++ {
			src := netaddr.Addr(0x0a000000 + uint32(i)) // 10.0.0.0 + i
			h.receive(runtime.EncodeUDP(src, dst, 4000, 4001))
		}
	})
	loopSync(h)

	if got := h.Stats().NoRoute; got != flood {
		t.Fatalf("NoRoute = %d, want %d (counting must not stop at the log bound)", got, flood)
	}
	if got := len(logs()); got != maxDropLogSources {
		t.Fatalf("log lines = %d, want %d (bounded)", got, maxDropLogSources)
	}
	if got := len(h.dropLogged); got != maxDropLogSources {
		t.Fatalf("dropLogged = %d entries, want bounded at %d", got, maxDropLogSources)
	}
}

// TestSocketWriteErrorCountedNotAsSent is the regression test for the
// discarded WriteToUDP error: a frame the socket refuses used to count as
// transmitted. It must count as a tx error instead, and log once per
// destination.
func TestSocketWriteErrorCountedNotAsSent(t *testing.T) {
	h, reg, logs := testHost(t)

	src := netaddr.MustParseAddr("10.0.0.1")
	dstA := netaddr.MustParseAddr("192.0.2.1")
	dstB := netaddr.MustParseAddr("192.0.2.2")
	h.SetPeer(netaddr.MustParsePrefix("192.0.2.0/24"), h.RealAddr())
	frameA := runtime.EncodeUDP(src, dstA, 4000, 4001)
	frameB := runtime.EncodeUDP(src, dstB, 4000, 4001)

	h.loop.Post(func() { h.Output(frameA) })
	loopSync(h)
	if st := h.Stats(); st.TxFrames != 1 || st.TxErrors != 0 {
		t.Fatalf("open socket: TxFrames=%d TxErrors=%d, want 1, 0", st.TxFrames, st.TxErrors)
	}

	h.conn.Close() // every write from here on fails
	for i := 0; i < 3; i++ {
		h.loop.Post(func() { h.Output(frameA) })
	}
	h.loop.Post(func() { h.Output(frameB) })
	loopSync(h)

	if st := h.Stats(); st.TxFrames != 1 || st.TxErrors != 4 {
		t.Fatalf("closed socket: TxFrames=%d TxErrors=%d, want 1, 4", st.TxFrames, st.TxErrors)
	}
	if v, ok := reg.Value("pcelisp_overlay_tx_errors_total", obs.Label{Key: "node", Value: "h1"}); !ok || v != 4 {
		t.Fatalf("registry tx_errors = %v, %v; want 4, true", v, ok)
	}
	var aLines, bLines int
	for _, l := range logs() {
		if !strings.Contains(l, "socket write failed") {
			t.Fatalf("unexpected log line %q", l)
		}
		if strings.Contains(l, "to "+dstA.String()+":") {
			aLines++
		}
		if strings.Contains(l, "to "+dstB.String()+":") {
			bLines++
		}
	}
	if aLines != 1 || bLines != 1 {
		t.Fatalf("write-error log lines: dstA=%d dstB=%d, want exactly 1 each\n%v", aLines, bLines, logs())
	}
}
