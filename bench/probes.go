package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"github.com/pcelisp/pcelisp/internal/core"
	"github.com/pcelisp/pcelisp/internal/irc"
	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/lispd"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/obs"
	"github.com/pcelisp/pcelisp/internal/overlay"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
	"github.com/pcelisp/pcelisp/internal/simnet"
	"github.com/pcelisp/pcelisp/internal/workload"
)

// Layer probes: loops that call one public function of one module with
// the workloads' own kind of input, from outside the module. Where a
// layer needs a host or a clock, a counting stub runtime.Host and an
// unstarted runtime.Loop stand in. Every probe reports the median over
// its rounds, and is itself a span in the trace.

// prober carries what the probes share.
type prober struct {
	sz    sizing
	layer map[string]float64
	tr    *tracer
}

// sink defeats dead-code elimination of probe results.
var sink int

// measure runs fn(n) — n calls of the probed function — for the
// configured number of rounds, n sized so a round lasts at least
// sz.probeRound, and returns the median ns per call and the allocations
// per call over all rounds.
func (p *prober) measure(fn func(n int)) (nsPerCall, allocsPerCall float64) {
	// Size n from a trial: aim a tenth over the round length, growing at
	// most 16x a step so one mistimed trial cannot overshoot far.
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		el := time.Since(t0)
		if el >= p.sz.probeRound || n >= 1<<24 {
			break
		}
		grow := 16.0
		if el > 0 {
			grow = min(grow, 1.1*float64(p.sz.probeRound)/float64(el))
		}
		n = max(n+1, int(float64(n)*grow))
	}
	per := make([]float64, 0, p.sz.probeRounds)
	before := snapMem()
	for r := 0; r < p.sz.probeRounds; r++ {
		t0 := time.Now()
		fn(n)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	cost := before.until(snapMem())
	return median(per), float64(cost.mallocs) / float64(n*p.sz.probeRounds)
}

// timed measures fn under a span named after the metric.
func (p *prober) timed(name string, fn func(n int)) (nsPerCall, allocsPerCall float64) {
	id := p.tr.begin("probe."+name, noSpan, 0)
	defer p.tr.end(id)
	return p.measure(fn)
}

// probe stores fn's ns per call under name (scaled by 1/divisor, so 1e3
// stores µs) and, when allocs is set, its allocations per call.
func (p *prober) probe(name string, divisor float64, allocs string, fn func(n int)) {
	ns, a := p.timed(name, fn)
	p.layer[name] = ns / divisor
	if allocs != "" {
		p.layer[allocs] = a
	}
}

// runProbes runs every layer probe into layer.
func runProbes(layer map[string]float64, tr *tracer, sz sizing) error {
	p := &prober{sz: sz, layer: layer, tr: tr}
	for _, group := range []func(*prober) error{
		probePacket, probeTables, probeLISPAndCore, probeSimnet, probeObs,
		probeLoop, probeOverlay, probeDaemon,
	} {
		if err := group(p); err != nil {
			return err
		}
	}
	return nil
}

// ---- stub host -----------------------------------------------------------

// stubHost is a counting runtime.Host: it owns addresses, accepts
// bindings and sniffers, and swallows every emitted frame after counting
// it, keeping the last one so a probe can feed one layer's output to the
// next layer.
type stubHost struct {
	name   string
	addrs  map[netaddr.Addr]struct{}
	frames int
	last   []byte
}

func newStubHost(name string, addrs ...netaddr.Addr) *stubHost {
	h := &stubHost{name: name, addrs: make(map[netaddr.Addr]struct{})}
	for _, a := range addrs {
		h.addrs[a] = struct{}{}
	}
	return h
}

func (h *stubHost) HostName() string { return h.name }
func (h *stubHost) HasAddr(a netaddr.Addr) bool {
	_, ok := h.addrs[a]
	return ok
}
func (h *stubHost) EgressByAddr(netaddr.Addr) runtime.Egress { return nil }
func (h *stubHost) AddrUp(a netaddr.Addr) bool               { return h.HasAddr(a) }
func (h *stubHost) RouteUp(netaddr.Addr) bool                { return true }
func (h *stubHost) Output(data []byte) error {
	h.frames++
	h.last = data
	return nil
}
func (h *stubHost) OutputVia(_ runtime.Egress, data []byte) { _ = h.Output(data) }
func (h *stubHost) OutputUDP(src, dst netaddr.Addr, sport, dport uint16, app ...packet.SerializableLayer) int {
	data := runtime.EncodeUDP(src, dst, sport, dport, app...)
	_ = h.Output(data)
	return len(data)
}
func (h *stubHost) BindUDP(netaddr.Addr, uint16, runtime.UDPHandler) {}
func (h *stubHost) BindUDPRaw(uint16, runtime.RawUDPHandler)         {}
func (h *stubHost) AddFrameSniffer(runtime.FrameSniffer)             {}
func (h *stubHost) JoinGroup(netaddr.Addr)                           {}

var _ runtime.Host = (*stubHost)(nil)

// stubDaemon assembles the xTR, IRC engine and PCE of domain idx the way
// lispd.New does, over a stub host and an unstarted loop: timers arm but
// never fire, frames are counted but go nowhere.
type stubDaemon struct {
	host *stubHost
	loop *runtime.Loop
	xtr  *lisp.XTR
	pce  *core.PCE
}

var probeAuthKey = []byte("pce-plane-key")

func newStubDaemon(idx int) *stubDaemon {
	rloc0, rloc1 := netaddr.AddrFrom4(10, byte(idx), 0, 1), netaddr.AddrFrom4(10, byte(idx), 1, 1)
	pceAddr, dnsAddr := netaddr.AddrFrom4(172, 16, byte(idx), 1), netaddr.AddrFrom4(172, 16, byte(idx), 2)
	site := netaddr.PrefixFrom(netaddr.AddrFrom4(100, byte(idx+1), 0, 0), 16)
	d := &stubDaemon{
		host: newStubHost(fmt.Sprintf("stub%d", idx), rloc0, rloc1, pceAddr, dnsAddr),
		loop: runtime.NewLoop(int64(idx) + 1),
	}
	d.xtr = lisp.NewXTR(d.loop, d.host, lisp.XTRConfig{
		RLOC: rloc0, LocalEIDs: site, EIDSpace: netaddr.MustParsePrefix("100.0.0.0/8"),
	})
	engine := irc.NewEngine(d.loop, []*irc.Provider{
		{Name: "P0", RLOC: rloc0, BaseLatency: 12 * time.Millisecond},
		{Name: "P1", RLOC: rloc1, BaseLatency: 25 * time.Millisecond},
	}, irc.MinLatency{})
	d.pce = core.NewWithRuntime(d.loop, d.host, core.Config{
		Addr: pceAddr, EIDPrefix: site, DNSAddr: dnsAddr, Engine: engine,
		AuthKey: probeAuthKey, PendingTTL: pendingTTLMillis * time.Millisecond,
	})
	d.pce.WireXTR(d.xtr)
	return d
}

// ---- packet --------------------------------------------------------------

func probePacket(p *prober) error {
	es, ed := clientEID(0), remoteEID(0)
	rng := rand.New(rand.NewSource(1))
	inner := dataFrame(rng, es, ed, 0, smallPayload)
	payload := packet.Payload(inner[udpPayloadOff:])
	tmpl := packet.NewEncapTemplate(netaddr.AddrFrom4(10, 0, 0, 1), netaddr.AddrFrom4(10, 1, 0, 1), packet.PortLISPData, packet.PortLISPData)
	outer := tmpl.Encap(inner, 7)

	p.probe("packet.encode_udp_ns", 1, "", func(n int) {
		for i := 0; i < n; i++ {
			sink += len(runtime.EncodeUDP(es, ed, dataSrcPort, dataDstPort, payload))
		}
	})
	p.probe("packet.decode_full_ns", 1, "packet.decode_full_allocs", func(n int) {
		for i := 0; i < n; i++ {
			sink += len(packet.NewPacket(outer, packet.LayerTypeIPv4, packet.Default).Layers())
		}
	})
	p.probe("packet.peek_udp_ns", 1, "", func(n int) {
		for i := 0; i < n; i++ {
			_, _, pl, _ := packet.PeekUDPPayload(outer)
			sink += len(pl)
		}
	})
	p.probe("packet.encap_template_ns", 1, "", func(n int) {
		for i := 0; i < n; i++ {
			sink += len(tmpl.Encap(inner, uint32(i)))
		}
	})

	push := &packet.PCECP{
		Version: packet.PCECPVersion, Type: packet.PCECPMappingPush, Nonce: 42,
		PCEAddr: netaddr.AddrFrom4(172, 16, 0, 1), KeyID: 1, AuthKey: probeAuthKey,
		Flows: []packet.PCEFlowMapping{{TTL: 300, SrcEID: es, DstEID: ed,
			SrcRLOC: netaddr.AddrFrom4(10, 0, 0, 1), DstRLOC: netaddr.AddrFrom4(10, 1, 0, 1)}},
		Prefixes: []packet.PCEPrefixMapping{{Prefix: netaddr.MustParsePrefix("100.2.0.0/16"), TTL: 300,
			Locators: []packet.LISPLocator{
				{Priority: 1, Weight: 50, Reachable: true, Addr: netaddr.AddrFrom4(10, 1, 0, 1)},
				{Priority: 1, Weight: 50, Reachable: true, Addr: netaddr.AddrFrom4(10, 1, 1, 1)}}}},
	}
	var bad error
	p.probe("packet.pcecp_push_roundtrip_ns", 1, "", func(n int) {
		for i := 0; i < n; i++ {
			wire := packet.Serialize(push)
			l := packet.NewPacket(wire, packet.LayerTypePCECP, packet.NoCopy).Layer(packet.LayerTypePCECP)
			if l == nil || !l.(*packet.PCECP).VerifyAuth(probeAuthKey) {
				bad = fmt.Errorf("signed MappingPush did not survive a serialize/decode/verify round trip")
			}
		}
	})
	answer := &packet.DNS{
		ID: 7, QR: true, AA: true, RD: true,
		Questions: []packet.DNSQuestion{{Name: remoteName(0), Type: packet.DNSTypeA, Class: packet.DNSClassIN}},
		Answers:   []packet.DNSResourceRecord{{Name: remoteName(0), Type: packet.DNSTypeA, Class: packet.DNSClassIN, TTL: 300, IP: ed}},
	}
	p.probe("packet.dns_roundtrip_ns", 1, "", func(n int) {
		for i := 0; i < n; i++ {
			got := &packet.DNS{}
			if err := got.DecodeFromBytes(packet.Serialize(answer)); err != nil {
				bad = fmt.Errorf("DNS answer round trip: %w", err)
			} else if a, ok := got.FirstA(); !ok || a != ed {
				bad = fmt.Errorf("DNS answer round trip returned %v", a)
			}
		}
	})
	return bad
}

// ---- tables: map-cache and trie -------------------------------------------

func probeTables(p *prober) error {
	const prefixes, capacity, keyRing = 512, 64, 1 << 14
	locs := []packet.LISPLocator{{Priority: 1, Weight: 100, Reachable: true, Addr: netaddr.AddrFrom4(10, 9, 0, 1)}}
	pfx := make([]netaddr.Prefix, prefixes)
	eid := make([]netaddr.Addr, prefixes)
	for i := range pfx {
		pfx[i] = netaddr.PrefixFrom(netaddr.AddrFrom4(100, byte(1+i/256), byte(i%256), 0), 24)
		eid[i] = pfx[i].NthHost(1)
	}
	// Keys are drawn before timing so the Zipf sampler is not measured.
	draw := func(n int, skew float64) []int32 {
		z := workload.NewZipf(rand.New(rand.NewSource(1)), n, skew)
		keys := make([]int32, keyRing)
		for i := range keys {
			keys[i] = int32(z.Next())
		}
		return keys
	}

	sim := simnet.New(1)
	hit := lisp.NewMapCache(sim, capacity)
	for i := 0; i < capacity; i++ {
		hit.Insert(pfx[i], locs, 60)
	}
	resident := draw(capacity, 1.2)
	p.probe("lisp.mapcache_hit_ns", 1, "", func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := hit.Lookup(eid[resident[i%keyRing]]); ok {
				sink++
			}
		}
	})
	churn := lisp.NewMapCache(sim, capacity)
	skewed := draw(prefixes, 1.2)
	p.probe("lisp.mapcache_churn_ns", 1, "", func(n int) {
		for i := 0; i < n; i++ {
			k := skewed[i%keyRing]
			if _, ok := churn.Lookup(eid[k]); !ok {
				churn.Insert(pfx[k], locs, 60)
			}
		}
	})

	const triePrefixes = 100_000
	trie := netaddr.NewTrie[int]()
	hosts := make([]netaddr.Addr, triePrefixes)
	for i := range hosts {
		pf := netaddr.PrefixFrom(netaddr.AddrFrom4(byte(100+i>>16), byte(i>>8), byte(i), 0), 24)
		trie.Insert(pf, i)
		hosts[i] = pf.NthHost(1)
	}
	popular := draw(triePrefixes, 1.2)
	p.probe("netaddr.trie_lookup_ns", 1, "", func(n int) {
		for i := 0; i < n; i++ {
			v, _, _ := trie.Lookup(hosts[popular[i%keyRing]])
			sink += v
		}
	})
	return nil
}

// ---- lisp and core over the stub daemons -----------------------------------

func probeLISPAndCore(p *prober) error {
	a, b := newStubDaemon(0), newStubDaemon(1)
	rng := rand.New(rand.NewSource(1))
	es, ed := clientEID(0), remoteEID(0)
	inner := dataFrame(rng, es, ed, 0, smallPayload)
	rlocA, rlocB := netaddr.AddrFrom4(10, 0, 0, 1), netaddr.AddrFrom4(10, 1, 0, 1)

	// Encap fast path: one pinned flow, the steady state of fwd_small.
	a.xtr.InstallFlow(es, ed, rlocA, rlocB, 300)
	a.xtr.InterceptFrame(inner)
	if a.host.frames != 1 {
		return fmt.Errorf("stub xTR did not encapsulate the pinned flow")
	}
	outer := a.host.last
	p.probe("lisp.encap_fast_ns", 1, "lisp.encap_fast_allocs", func(n int) {
		for i := 0; i < n; i++ {
			a.xtr.InterceptFrame(inner)
		}
	})
	_, _, lispPayload, ok := packet.PeekUDPPayload(outer)
	if !ok {
		return fmt.Errorf("stub xTR emitted an undecodable outer frame")
	}
	before := b.host.frames
	b.xtr.DecapFrame(outer, lispPayload)
	if b.host.frames != before+1 {
		return fmt.Errorf("stub xTR did not decapsulate")
	}
	p.probe("lisp.decap_ns", 1, "lisp.decap_allocs", func(n int) {
		for i := 0; i < n; i++ {
			b.xtr.DecapFrame(outer, lispPayload)
		}
	})

	// Install and first packet on a flow_setup-sized table: each round
	// re-installs every flow (which resets its template) and then sends
	// each flow's first packet.
	flows := p.sz.setupNames * p.sz.setupSources
	frames := make([][]byte, flows)
	type pairKey struct{ es, ed netaddr.Addr }
	keys := make([]pairKey, flows)
	for f := range frames {
		keys[f] = pairKey{clientEID(f / p.sz.setupNames), remoteEID(f % p.sz.setupNames)}
		frames[f] = dataFrame(rng, keys[f].es, keys[f].ed, uint32(f), smallPayload)
		a.xtr.InstallFlow(keys[f].es, keys[f].ed, rlocA, rlocB, 300)
	}
	cursor := 0
	p.probe("lisp.install_flow_ns", 1, "", func(n int) {
		for i := 0; i < n; i++ {
			k := keys[(cursor+i)%flows]
			a.xtr.InstallFlow(k.es, k.ed, rlocA, rlocB, 300)
		}
		cursor = (cursor + n) % flows
	})
	// encap_first re-installs outside the timed calls: measure() times
	// fn as a whole, so the install cost is subtracted afterwards.
	p.probe("lisp.encap_first_ns", 1, "", func(n int) {
		for i := 0; i < n; i++ {
			f := (cursor + i) % flows
			a.xtr.InstallFlow(keys[f].es, keys[f].ed, rlocA, rlocB, 300)
			a.xtr.InterceptFrame(frames[f])
		}
		cursor = (cursor + n) % flows
	})
	p.layer["lisp.encap_first_ns"] -= p.layer["lisp.install_flow_ns"]

	// The PCE sniffer's tax on a data frame that is none of its business.
	p.probe("core.sniff_pass_ns", 1, "", func(n int) {
		for i := 0; i < n; i++ {
			if a.pce.SniffFrame(inner) != runtime.VerdictPass {
				sink++
			}
		}
	})

	// PCED: an authoritative answer leaving B for A's resolver is replaced
	// by a port-P message carrying the mapping and the answer.
	reply := runtime.EncodeUDP(netaddr.AddrFrom4(172, 16, 1, 2), dnsAddrA, packet.PortDNS, packet.PortDNS, &packet.DNS{
		ID: 9, QR: true, AA: true, RD: true,
		Questions: []packet.DNSQuestion{{Name: remoteName(0), Type: packet.DNSTypeA, Class: packet.DNSClassIN}},
		Answers:   []packet.DNSResourceRecord{{Name: remoteName(0), Type: packet.DNSTypeA, Class: packet.DNSClassIN, TTL: 300, IP: ed}},
	})
	if b.pce.SniffFrame(reply) != runtime.VerdictConsume {
		return fmt.Errorf("stub PCED let an authoritative reply through")
	}
	portP := b.host.last
	p.probe("core.dns_reply_encap_ns", 1, "", func(n int) {
		for i := 0; i < n; i++ {
			b.pce.SniffFrame(reply)
		}
	})

	// PCES: the client's lookup is noted (step 1), then the port-P message
	// arrives: verify, learn the mapping, hand the answer to the resolver,
	// push the flow (steps 7a, 7b).
	pushes := a.pce.Stats().MappingPushes
	a.pce.NoteClientQuery(es, remoteName(0))
	if a.pce.SniffFrame(portP) != runtime.VerdictConsume || a.pce.Stats().MappingPushes != pushes+1 {
		return fmt.Errorf("stub PCES did not push on a port-P reply")
	}
	p.probe("core.portp_push_ns", 1, "", func(n int) {
		for i := 0; i < n; i++ {
			a.pce.NoteClientQuery(es, remoteName(0))
			a.pce.SniffFrame(portP)
		}
	})
	return nil
}

// ---- simnet --------------------------------------------------------------

// hotTimer keeps rescheduling itself a tick ahead — the shape of every
// protocol timer in the simulator, and of BenchmarkSchedulerHot.
type hotTimer struct {
	sim  *simnet.Sim
	left int
}

func (h *hotTimer) OnTimer(simnet.TimerArg) {
	if h.left > 0 {
		h.left--
		h.sim.ScheduleTimer(time.Microsecond, h, simnet.TimerArg{})
	}
}

func probeSimnet(p *prober) error {
	hot := &hotTimer{sim: simnet.New(1)}
	p.probe("simnet.sched_ns_per_event", 1, "", func(n int) {
		hot.left = n
		hot.sim.ScheduleTimer(0, hot, simnet.TimerArg{})
		sink += hot.sim.Run()
	})

	net2 := simnet.New(1)
	na, nb := net2.NewNode("a"), net2.NewNode("b")
	l := simnet.Connect(na, nb, simnet.LinkConfig{Delay: time.Millisecond})
	l.A().SetAddr(netaddr.MustParseAddr("192.0.2.1"))
	l.B().SetAddr(netaddr.MustParseAddr("192.0.2.2"))
	na.SetDefaultRoute(l.A())
	nb.SetDefaultRoute(l.B())
	got := 0
	nb.ListenUDPRaw(7777, func(*simnet.Delivery, []byte) { got++ })
	frame := simnet.EncodeUDP(na.PrimaryAddr(), nb.PrimaryAddr(), 1234, 7777, packet.Payload(make([]byte, smallPayload)))
	sent := 0
	var sendErr error
	p.probe("simnet.link_ns_per_frame", 1, "", func(n int) {
		for i := 0; i < n; i++ {
			if err := na.Send(frame); err != nil {
				sendErr = err
			}
		}
		sent += n
		net2.Run()
	})
	if sendErr != nil {
		return fmt.Errorf("simnet link probe: %w", sendErr)
	}
	if got != sent {
		return fmt.Errorf("simnet link probe delivered %d of %d frames", got, sent)
	}
	return nil
}

// ---- obs -----------------------------------------------------------------

func probeObs(p *prober) error {
	var c obs.Counter
	p.probe("obs.counter_inc_ns", 1, "", func(n int) {
		for i := 0; i < n; i++ {
			c.Inc()
		}
	})
	return nil
}

// ---- runtime.Loop --------------------------------------------------------

// loopTimer counts firings on the loop goroutine and signals when the
// awaited count is reached.
type loopTimer struct {
	fired, want atomic.Int64
	done        chan struct{}
}

func (t *loopTimer) OnTimer(runtime.TimerArg) {
	if t.fired.Add(1) == t.want.Load() {
		t.done <- struct{}{}
	}
}

func probeLoop(p *prober) error {
	loop := runtime.NewLoop(1)
	loop.Start()
	defer loop.Stop()
	done := make(chan struct{}, 1)
	signal := func() { done <- struct{}{} }
	nop := func() {}
	p.probe("runtime.post_ns", 1, "runtime.post_allocs", func(n int) {
		for i := 0; i < n; i++ {
			loop.Post(nop)
		}
		loop.Post(signal)
		<-done
	})
	p.probe("runtime.post_wake_us", 1e3, "", func(n int) {
		for i := 0; i < n; i++ {
			loop.Post(signal)
			<-done
		}
	})

	// Arm-and-fire against a heap that already holds 10 000 timers.
	const ballast = 10_000
	idle := &loopTimer{done: make(chan struct{}, 1)}
	for i := 0; i < ballast; i++ {
		loop.ScheduleTimer(time.Hour, idle, runtime.TimerArg{})
	}
	lt := &loopTimer{done: make(chan struct{}, 1)}
	p.probe("runtime.timer_churn_ns", 1, "", func(n int) {
		lt.want.Store(lt.fired.Load() + int64(n))
		for i := 0; i < n; i++ {
			loop.ScheduleTimer(0, lt, runtime.TimerArg{})
		}
		<-lt.done
	})
	return nil
}

// ---- overlay -------------------------------------------------------------

func probeOverlay(p *prober) error {
	loop := runtime.NewLoop(1)
	host, err := overlay.New("probe", loop, "127.0.0.1:0")
	if err != nil {
		return err
	}
	self := netaddr.AddrFrom4(10, 9, 0, 1)
	host.AddAddr(self)
	// hits is sized to the largest window the probe keeps in flight.
	const window = 32
	hits := make(chan struct{}, window)
	host.BindUDPRaw(packet.PortLISPData, func(_, _ []byte) { hits <- struct{}{} })
	loop.Start()
	host.Start()
	defer loop.Stop()
	defer host.Close()

	conn, err := net.DialUDP("udp4", nil, host.RealAddr())
	if err != nil {
		return err
	}
	defer conn.Close()
	frame := runtime.EncodeUDP(netaddr.AddrFrom4(10, 9, 1, 1), self, packet.PortLISPData, packet.PortLISPData,
		packet.Payload(make([]byte, packet.LISPHeaderLen+udpPayloadOff+smallPayload)))
	var ioErr error
	write := func() {
		if _, err := conn.Write(frame); err != nil {
			ioErr = err
			hits <- struct{}{} // keep the closed loop from hanging
		}
	}
	p.probe("overlay.rx_dispatch_us", 1e3, "", func(n int) {
		for i := 0; i < n; i++ {
			write()
			<-hits
		}
	})
	ns, allocs := p.timed("overlay.rx_pps", func(n int) {
		sent := 0
		for ; sent < window && sent < n; sent++ {
			write()
		}
		for got := 0; got < n; got++ {
			<-hits
			if sent < n {
				write()
				sent++
			}
		}
	})
	p.layer["overlay.rx_pps"] = 1e9 / ns
	p.layer["overlay.rx_allocs_per_frame"] = allocs
	if ioErr != nil {
		return fmt.Errorf("overlay rx probe: %w", ioErr)
	}

	// Output toward a peer socket nobody reads: the kernel drops what
	// does not fit its buffer, the sender pays the same system call.
	peer, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer peer.Close()
	host.SetPeer(netaddr.MustParsePrefix("10.8.0.0/16"), peer.LocalAddr().(*net.UDPAddr))
	out := runtime.EncodeUDP(self, netaddr.AddrFrom4(10, 8, 0, 1), packet.PortLISPData, packet.PortLISPData,
		packet.Payload(make([]byte, packet.LISPHeaderLen+udpPayloadOff+smallPayload)))
	var outErr error
	p.probe("overlay.output_ns", 1, "overlay.output_allocs", func(n int) {
		for i := 0; i < n; i++ {
			if err := host.Output(out); err != nil {
				outErr = err
			}
		}
	})
	if outErr != nil {
		return fmt.Errorf("overlay output probe: %w", outErr)
	}
	if st := host.Stats(); st.NoRoute+st.Malformed+st.Unhandled != 0 {
		return fmt.Errorf("overlay probe frames were dropped: %+v", st)
	}
	return nil
}

// ---- one whole daemon ------------------------------------------------------

func probeDaemon(p *prober) error {
	gen, err := newGenerator(p.sz.opTimeout)
	if err != nil {
		return err
	}
	defer gen.conn.Close()
	d, err := lispd.New(daemonConfig(0, 0))
	if err != nil {
		return err
	}
	defer d.Close()
	d.SetPeer(netaddr.MustParsePrefix("100.1.0.0/16"), gen.addr())
	gen.to = d.RealAddr().AddrPort()
	d.Start()

	// A query the daemon answers itself: socket, loop and DNS front end,
	// no PCE and no peer — the floor under flow_setup's latency.
	query := runtime.EncodeUDP(localES, dnsAddrA, clientPort, packet.PortDNS, &packet.DNS{
		ID: 1, RD: true,
		Questions: []packet.DNSQuestion{{Name: localName, Type: packet.DNSTypeA, Class: packet.DNSClassIN}},
	})
	want := &rflow{es: localES, ed: localES}
	var bad error
	p.probe("lispd.dns_local_us", 1e3, "", func(n int) {
		for i := 0; i < n && bad == nil; i++ {
			if err := gen.send(query); err != nil {
				bad = err
				return
			}
			k, timedOut, err := gen.recv(gen.now())
			if err != nil || timedOut {
				bad = fmt.Errorf("local DNS query: timed out=%v err=%v", timedOut, err)
				return
			}
			_, _, dns, ok := packet.PeekUDPPayload(gen.buf[:k])
			if !ok || !validAnswer(gen.buf[:k], dns, want) {
				bad = fmt.Errorf("local DNS query returned a wrong answer")
			}
		}
	})
	if bad != nil {
		return bad
	}
	p.probe("obs.scrape_us", 1e3, "", func(n int) {
		for i := 0; i < n; i++ {
			if err := d.Registry().WritePrometheus(io.Discard); err != nil {
				bad = err
			}
		}
	})
	return bad
}
