package workload

import (
	"math/rand"
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

// tcpWorld is two hosts over one 25ms link.
func tcpWorld(t testing.TB, loss float64) (*simnet.Sim, *TCPHost, *TCPHost, *simnet.Link) {
	t.Helper()
	s := simnet.New(1)
	a := s.NewNode("a")
	b := s.NewNode("b")
	l := simnet.Connect(a, b, simnet.LinkConfig{Delay: 25 * time.Millisecond, Loss: loss})
	l.A().SetAddr(netaddr.MustParseAddr("10.0.0.1"))
	l.B().SetAddr(netaddr.MustParseAddr("10.0.0.2"))
	a.SetDefaultRoute(l.A())
	b.SetDefaultRoute(l.B())
	return s, NewTCPHost(a, netaddr.MustParseAddr("10.0.0.1")), NewTCPHost(b, netaddr.MustParseAddr("10.0.0.2")), l
}

func TestTCPHandshake(t *testing.T) {
	s, client, server, _ := tcpWorld(t, 0)
	server.Listen(80)
	var res ConnResult
	client.Connect(server.Addr(), 80, func(r ConnResult) { res = r })
	s.Run()
	if !res.OK {
		t.Fatal("handshake failed")
	}
	// SYN out (25ms) + SYN-ACK back (25ms) = 50ms at the client.
	if res.Elapsed != 50*time.Millisecond {
		t.Fatalf("handshake = %v, want 50ms", res.Elapsed)
	}
	if res.Retransmits != 0 {
		t.Fatalf("retransmits = %d", res.Retransmits)
	}
	if client.Stats.Established != 1 || server.Stats.SynAckSent != 1 {
		t.Fatalf("stats: client=%+v server=%+v", client.Stats, server.Stats)
	}
}

func TestTCPSynRetransmissionAfterLoss(t *testing.T) {
	s, client, server, link := tcpWorld(t, 0)
	server.Listen(80)
	// Break the link for the first 100ms: the first SYN dies; the
	// RFC 6298 1s RTO dominates the handshake time.
	link.SetLoss(1.0)
	var res ConnResult
	client.Connect(server.Addr(), 80, func(r ConnResult) { res = r })
	s.RunFor(100 * time.Millisecond)
	link.SetLoss(0)
	s.Run()
	if !res.OK || res.Retransmits != 1 {
		t.Fatalf("res = %+v", res)
	}
	if res.Elapsed != 1050*time.Millisecond {
		t.Fatalf("handshake with one lost SYN = %v, want 1.05s", res.Elapsed)
	}
	if client.Stats.SynRetransmits != 1 {
		t.Fatalf("retransmit counter = %d", client.Stats.SynRetransmits)
	}
}

func TestTCPExponentialBackoffAndAbort(t *testing.T) {
	s, client, server, link := tcpWorld(t, 0)
	client.MaxSynRetries = 3
	server.Listen(80)
	link.SetLoss(1.0) // never heal
	var res ConnResult
	gotAt := simnet.Time(0)
	client.Connect(server.Addr(), 80, func(r ConnResult) { res = r; gotAt = s.Now() })
	s.RunFor(60 * time.Second)
	if res.OK {
		t.Fatal("connect through dead link must fail")
	}
	if res.Retransmits != 3 {
		t.Fatalf("retransmits = %d", res.Retransmits)
	}
	// RTOs: 1s + 2s + 4s + 8s = 15s until abort.
	if gotAt != 15*time.Second {
		t.Fatalf("aborted at %v, want 15s", gotAt)
	}
	if client.Stats.Aborted != 1 {
		t.Fatalf("aborted counter = %d", client.Stats.Aborted)
	}
}

func TestTCPNoListener(t *testing.T) {
	s, client, server, _ := tcpWorld(t, 0)
	client.MaxSynRetries = 1
	var res ConnResult
	client.Connect(server.Addr(), 81, func(r ConnResult) { res = r })
	s.RunFor(30 * time.Second)
	if res.OK {
		t.Fatal("connect to closed port must fail")
	}
	_ = server
}

func TestTCPDataSegments(t *testing.T) {
	s, client, server, _ := tcpWorld(t, 0)
	server.Listen(80)
	established := false
	client.Connect(server.Addr(), 80, func(r ConnResult) {
		established = r.OK
		client.SendData(server.Addr(), 32769, 80, 10, 512)
	})
	s.Run()
	if !established {
		t.Fatal("handshake failed")
	}
	if server.Stats.DataReceived != 10 {
		t.Fatalf("data received = %d", server.Stats.DataReceived)
	}
}

func TestPump(t *testing.T) {
	s := simnet.New(1)
	a := s.NewNode("a")
	b := s.NewNode("b")
	l := simnet.Connect(a, b, simnet.LinkConfig{Delay: time.Millisecond})
	l.A().SetAddr(netaddr.MustParseAddr("10.0.0.1"))
	l.B().SetAddr(netaddr.MustParseAddr("10.0.0.2"))
	a.SetDefaultRoute(l.A())
	got := 0
	b.ListenUDP(9, func(*simnet.Delivery, *packet.UDP) { got++ })
	// 800kbps at 1000-byte packets = 100 packets/second.
	p := NewPump(a, netaddr.MustParseAddr("10.0.0.1"), netaddr.MustParseAddr("10.0.0.2"), 9, 800_000, 1000)
	p.Start()
	s.RunUntil(2 * time.Second)
	p.Stop()
	s.RunUntil(3 * time.Second)
	if p.Sent < 198 || p.Sent > 202 {
		t.Fatalf("pump sent %d packets in 2s, want ~200", p.Sent)
	}
	if uint64(got) != p.Sent {
		t.Fatalf("delivered %d of %d", got, p.Sent)
	}
	// Stopped pumps stay stopped.
	sent := p.Sent
	s.RunUntil(4 * time.Second)
	if p.Sent != sent {
		t.Fatal("pump kept sending after Stop")
	}
}

func TestPoissonMeanRate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewPoisson(rng, 50)
	var total simnet.Time
	const n = 20000
	for i := 0; i < n; i++ {
		total += p.Next()
	}
	mean := total / n
	want := 20 * time.Millisecond
	if mean < want*8/10 || mean > want*12/10 {
		t.Fatalf("mean inter-arrival = %v, want ~%v", mean, want)
	}
}

func TestZipfSkewAndUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	z := NewZipf(rng, 100, 1.3)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		idx := z.Next()
		if idx < 0 || idx >= 100 {
			t.Fatalf("index %d out of range", idx)
		}
		counts[idx]++
	}
	if counts[0] <= counts[50]*5 {
		t.Fatalf("Zipf head not dominant: head=%d mid=%d", counts[0], counts[50])
	}
	// Skew <= 1 degenerates to uniform.
	u := NewZipf(rng, 10, 0)
	uc := make([]int, 10)
	for i := 0; i < 10000; i++ {
		uc[u.Next()]++
	}
	for i, c := range uc {
		if c < 700 || c > 1300 {
			t.Fatalf("uniform bucket %d = %d", i, c)
		}
	}
}

func TestParetoTail(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewPareto(rng, 1.2, 3, 10000)
	saw := map[bool]int{}
	for i := 0; i < 10000; i++ {
		v := p.Next()
		if v < 3 || v > 10000 {
			t.Fatalf("sample %d outside bounds", v)
		}
		saw[v > 30]++
	}
	// Heavy tail: a visible fraction of samples is an order of magnitude
	// above the minimum.
	if saw[true] < 200 {
		t.Fatalf("tail samples = %d, distribution not heavy-tailed", saw[true])
	}
}

func TestGeneratorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, fn := range map[string]func(){
		"poisson": func() { NewPoisson(rng, 0) },
		"zipf":    func() { NewZipf(rng, 0, 1.2) },
		"pareto":  func() { NewPareto(rng, 0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: bad parameters must panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestPumpTickSingleAlloc pins the generator's cost: one tick is one
// datagram, and one datagram is one allocation — the frame. The payload
// rides as a pointer (no boxing), the headers come from EncodeUDP's pooled
// scratch, the next tick is a typed timer.
func TestPumpTickSingleAlloc(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector, so pooled buffers re-allocate")
	}
	s := simnet.New(1)
	a, b := s.NewNode("a"), s.NewNode("b")
	l := simnet.Connect(a, b, simnet.LinkConfig{Delay: time.Millisecond})
	l.A().SetAddr(netaddr.MustParseAddr("10.0.0.1"))
	l.B().SetAddr(netaddr.MustParseAddr("10.0.0.2"))
	a.SetDefaultRoute(l.A())
	got := 0
	b.ListenUDP(9, func(*simnet.Delivery, *packet.UDP) { got++ })
	p := NewPump(a, netaddr.MustParseAddr("10.0.0.1"), netaddr.MustParseAddr("10.0.0.2"), 9, 8_000_000, 1000)
	p.Start()
	s.RunFor(100 * time.Millisecond) // size the queue, the arrival batch and the pools
	const ticks = 100
	sent, rcvd := p.Sent, got
	per := testing.AllocsPerRun(20, func() { s.RunFor(ticks * time.Millisecond) })
	if n := (p.Sent - sent) / 21; n != ticks || got-rcvd != 21*ticks {
		t.Fatalf("a measured run sent %d datagrams (want %d) and %d of %d arrived", n, ticks, got-rcvd, 21*ticks)
	}
	if per != ticks {
		t.Fatalf("%d pump ticks, sent and delivered, cost %.0f allocs, want %d (one frame each)", ticks, per, ticks)
	}
}
