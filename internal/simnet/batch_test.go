package simnet

import (
	"fmt"
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
)

// twoHopWorld is A —1ms— R —1ms— B with forwarding through R.
type twoHopWorld struct {
	sim     *Sim
	a, r, b *Node
	ar, rb  *Link
	aAddr   netaddr.Addr
	bAddr   netaddr.Addr
}

func newTwoHop(t testing.TB) *twoHopWorld {
	t.Helper()
	s := New(1)
	w := &twoHopWorld{
		sim: s,
		a:   s.NewNode("a"), r: s.NewNode("r"), b: s.NewNode("b"),
	}
	cfg := LinkConfig{Delay: time.Millisecond}
	w.ar = Connect(w.a, w.r, cfg)
	w.ar.A().SetAddr(netaddr.MustParseAddr("10.0.0.1"))
	w.ar.B().SetAddr(netaddr.MustParseAddr("10.0.0.2"))
	w.rb = Connect(w.r, w.b, cfg)
	w.rb.A().SetAddr(netaddr.MustParseAddr("10.0.1.1"))
	w.rb.B().SetAddr(netaddr.MustParseAddr("10.0.1.2"))
	w.aAddr = netaddr.MustParseAddr("10.0.0.1")
	w.bAddr = netaddr.MustParseAddr("10.0.1.2")
	w.a.SetDefaultRoute(w.ar.A())
	w.b.SetDefaultRoute(w.rb.B())
	w.r.AddRoute(netaddr.MustParsePrefix("10.0.1.0/24"), w.rb.A())
	w.r.AddRoute(netaddr.MustParsePrefix("10.0.0.0/24"), w.ar.B())
	return w
}

// TestBatchSameTickFIFO pins the frame-batch FIFO contract: frames sent
// back-to-back in one event share an arrival tick and must deliver in
// send order from a single drain.
func TestBatchSameTickFIFO(t *testing.T) {
	w := newTwoHop(t)
	var got []string
	w.b.ListenUDP(7000, func(d *Delivery, udp *packet.UDP) {
		got = append(got, string(udp.LayerPayload()))
	})
	w.sim.ScheduleFunc(0, func() {
		for i := 0; i < 5; i++ {
			w.a.SendUDP(w.aAddr, w.bAddr, 1, 7000, packet.Payload(fmt.Sprintf("pkt-%d", i)))
		}
	})
	w.sim.Run()
	if len(got) != 5 {
		t.Fatalf("delivered %d packets, want 5: %v", len(got), got)
	}
	for i, p := range got {
		if want := fmt.Sprintf("pkt-%d", i); p != want {
			t.Fatalf("delivery order = %v (position %d: got %q want %q)", got, i, p, want)
		}
	}
}

// TestBatchAdminDownFlushesToAdminDrops pins the per-frame drop
// accounting through a batch drain: frames in flight when the receiving
// interface goes admin-down are each counted as AdminDrops, exactly as
// the per-frame arrival events did before batching.
func TestBatchAdminDownFlushesToAdminDrops(t *testing.T) {
	w := newTwoHop(t)
	delivered := 0
	w.b.ListenUDP(7000, func(*Delivery, *packet.UDP) { delivered++ })
	w.sim.ScheduleFunc(0, func() {
		for i := 0; i < 4; i++ {
			w.a.SendUDP(w.aAddr, w.bAddr, 1, 7000, packet.Payload("x"))
		}
	})
	// Frames are on the wire toward R (arrive at 1ms); kill R's ingress
	// before they land.
	w.sim.ScheduleFunc(500*time.Microsecond, func() { w.ar.B().SetUp(false) })
	w.sim.Run()
	if delivered != 0 {
		t.Fatalf("delivered %d packets through a down interface", delivered)
	}
	if drops := w.ar.B().Counters().AdminDrops; drops != 4 {
		t.Fatalf("AdminDrops = %d, want 4 (one per batched frame)", drops)
	}
	if rx := w.r.Stats.RxPackets; rx != 0 {
		t.Fatalf("router received %d packets through a down interface", rx)
	}
}

// TestBatchDrainOrderVsTimers pins the deterministic interleaving of
// link-frame batches, timers and loopback deliveries at one instant: a
// batch drains contiguously at the queue position where its first frame
// armed it, and loopback deliveries keep their own scheduling position.
func TestBatchDrainOrderVsTimers(t *testing.T) {
	w := newTwoHop(t)
	var got []string
	w.r.AddSniffer(func(d *Delivery) SnifferVerdict {
		src, _, _, _ := packet.PeekUDPPayload(d.Data)
		got = append(got, fmt.Sprintf("frame-%d", src))
		return SnifferConsume
	})
	w.a.ListenUDP(7100, func(*Delivery, *packet.UDP) { got = append(got, "loopback") })
	w.sim.ScheduleFunc(0, func() {
		// Queue position 1: a timer at the arrival instant.
		w.sim.ScheduleFunc(time.Millisecond, func() { got = append(got, "timer-1") })
		// Queue position 2: the drain, armed by the first frame; the
		// second frame rides the same batch, so both deliver here.
		w.a.SendUDP(w.aAddr, w.bAddr, 1, 7000, packet.Payload("p"))
		w.a.SendUDP(w.aAddr, w.bAddr, 2, 7000, packet.Payload("p"))
		// Queue position 3: a later timer; it must see both frames
		// already delivered and schedules a loopback at its own instant,
		// which lands after it.
		w.sim.ScheduleFunc(time.Millisecond, func() {
			got = append(got, "timer-2")
			w.a.SendUDP(w.aAddr, w.aAddr, 3, 7100, packet.Payload("p"))
		})
	})
	w.sim.Run()
	want := []string{"timer-1", "frame-1", "frame-2", "timer-2", "loopback"}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events = %v, want %v", got, want)
		}
	}
}

// TestRouteCacheAdminStateAudit pins the route-cache / admin-state
// contract: the per-node LookupRoute memo caches only the routing-table
// result, never interface or node liveness, which transmit() and the
// batch drain re-check per frame. A warmed cache must therefore behave
// exactly like a cold one across SetUp(false) and Fail/Recover — no
// invalidation required.
func TestRouteCacheAdminStateAudit(t *testing.T) {
	w := newTwoHop(t)
	delivered := 0
	w.b.ListenUDP(7000, func(*Delivery, *packet.UDP) { delivered++ })
	send := func(n int) {
		w.sim.ScheduleFunc(0, func() {
			for i := 0; i < n; i++ {
				w.a.SendUDP(w.aAddr, w.bAddr, 1, 7000, packet.Payload("x"))
			}
		})
		w.sim.Run()
	}

	// Warm R's route cache by forwarding.
	send(2)
	if delivered != 2 {
		t.Fatalf("warmup delivered %d, want 2", delivered)
	}
	cached := false
	for _, e := range w.r.rcache {
		if e.valid && e.dst == w.bAddr && e.ok {
			cached = true
		}
	}
	if !cached {
		t.Fatal("forwarding did not warm the route cache; audit test is vacuous")
	}

	// Egress admin-down: the cached route must still hit the transmit
	// check and count AdminDrops on R's egress.
	w.rb.A().SetUp(false)
	send(3)
	if delivered != 2 {
		t.Fatalf("cached route delivered %d packets past a down egress", delivered-2)
	}
	if drops := w.rb.A().Counters().AdminDrops; drops != 3 {
		t.Fatalf("egress AdminDrops = %d, want 3", drops)
	}

	// Recovery needs no cache invalidation either.
	w.rb.A().SetUp(true)
	send(1)
	if delivered != 3 {
		t.Fatalf("delivered %d after egress recovery, want 3", delivered)
	}

	// Node failure: frames are flushed at R's ingress drain, again per
	// frame, with the cache still warm.
	w.r.Fail()
	send(2)
	if delivered != 3 {
		t.Fatalf("failed router forwarded %d packets", delivered-3)
	}
	if drops := w.ar.B().Counters().AdminDrops; drops != 2 {
		t.Fatalf("ingress AdminDrops = %d, want 2", drops)
	}
	w.r.Recover()
	send(1)
	if delivered != 4 {
		t.Fatalf("delivered %d after node recovery, want 4", delivered)
	}
}

// TestArrivalBatchBoundedUnderBacklog pins the arrival batch's memory on a
// link that never idles: drainArrivals resets arrQ only when it runs
// empty, so a persistently backlogged link used to keep one slot for
// every frame it had ever carried. scheduleArrival now reclaims the
// drained prefix once the slice is full and at least half drained, which
// bounds cap(arrQ) by 4x the peak in flight (the queue settles at a
// capacity in [2L, 4L) for L frames in flight) and moves nothing
// observable: FIFO order and arrival times are the link model's, and an
// out-of-order arrival (Delay lowered mid-flight) still sorts in.
func TestArrivalBatchBoundedUnderBacklog(t *testing.T) {
	const (
		frames  = 50_000
		frameSz = 100
		txTime  = 10 * time.Microsecond // 100 B at 80 Mbit/s
		delay   = 200 * time.Microsecond
		early   = 50 * time.Microsecond // the lowered Delay
	)
	s := New(1)
	a, b, l := twoNodes(s, LinkConfig{Delay: delay, RateBps: 80_000_000})
	rx := l.B()
	payload := make(packet.Payload, frameSz-packet.IPv4HeaderLen-packet.UDPHeaderLen)

	type arrival struct {
		seq uint32
		at  Time
	}
	var got []arrival
	b.ListenUDP(7, func(_ *Delivery, udp *packet.UDP) {
		p := udp.LayerPayload()
		got = append(got, arrival{uint32(p[0])<<24 | uint32(p[1])<<16 | uint32(p[2])<<8 | uint32(p[3]), s.Now()})
	})

	peak, maxCap := 0, 0
	var send func()
	seq := uint32(0)
	send = func() {
		if live := len(rx.arrQ) - rx.arrHead; live > peak {
			peak = live
		}
		if seq == frames {
			// Still backlogged: a frame on a suddenly shorter wire must be
			// sorted in ahead of the queued tail.
			cfg := l.A().Config()
			cfg.Delay = early
			l.A().SetConfig(cfg)
		}
		payload[0], payload[1], payload[2], payload[3] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
		a.SendUDP(a.PrimaryAddr(), b.PrimaryAddr(), 1, 7, &payload)
		if c := cap(rx.arrQ); c > maxCap {
			maxCap = c
		}
		if seq++; seq <= frames {
			s.ScheduleFunc(txTime, send)
		}
	}
	send()
	s.Run()

	if peak < 8 {
		t.Fatalf("peak in flight = %d: the link was not backlogged", peak)
	}
	if maxCap > 4*peak+8 {
		t.Fatalf("cap(arrQ) reached %d with at most %d frames in flight over %d sent: the drained prefix is not reclaimed", maxCap, peak, frames)
	}
	if len(got) != frames+1 {
		t.Fatalf("delivered %d of %d frames", len(got), frames+1)
	}
	// The link model: frame i starts serializing at i*txTime, so it lands
	// at (i+1)*txTime + delay; the last one rode the shorter wire.
	lateAt := Time(frames+1)*txTime + early
	next := uint32(0)
	for i, g := range got {
		if g.seq == frames {
			if g.at != lateAt {
				t.Fatalf("early frame landed at %v, want %v", g.at, lateAt)
			}
			if i == len(got)-1 {
				t.Fatal("early frame was delivered last: the sorted insert did not happen")
			}
			continue
		}
		if want := Time(g.seq+1)*txTime + delay; g.seq != next || g.at != want {
			t.Fatalf("delivery %d: frame %d at %v, want frame %d at %v", i, g.seq, g.at, next, want)
		}
		if i > 0 && g.at < got[i-1].at {
			t.Fatalf("delivery %d at %v precedes delivery %d at %v", i, g.at, i-1, got[i-1].at)
		}
		next++
	}
}
