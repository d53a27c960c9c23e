package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"syscall"
	"time"

	"github.com/pcelisp/pcelisp/internal/core"
	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/lispd"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/overlay"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// The real-path workloads drive two in-process lispd daemons that
// exchange real UDP datagrams over loopback, built with lispd.New from
// the TestLoopbackE2E address plan (site + PCE + DNS roles on each,
// PCECP authentication on). One generator goroutine with one socket
// stands in for every end host of both sites: daemon A routes its site
// prefix (the clients) to it, daemon B routes its site prefix (the
// servers) to it, and what comes back is told apart by UDP port.

const (
	clientPort   = 5353 // source port of every DNS query
	dataSrcPort  = 7777
	dataDstPort  = 8888
	smallPayload = 64
	largePayload = 1400
	// Payload layout of a data frame: flow id, sequence number, the
	// sequence number's complement, then seeded filler. A word and its
	// complement sum to 0xFFFF in ones-complement arithmetic, so patching
	// both leaves the UDP checksum the encoder computed valid.
	payloadFlowOff = 0
	payloadSeqOff  = 4
	payloadHdrLen  = 12
	udpPayloadOff  = packet.IPv4HeaderLen + packet.UDPHeaderLen
	maxOutstanding = 64
	// pendingTTLMillis bounds the PCE's step-1 pending timers to one
	// second, so the loop's timer heap reaches its steady size inside
	// set-up instead of growing for the first ten seconds of the window.
	pendingTTLMillis = 1000
)

var (
	dnsAddrA = netaddr.MustParseAddr("172.16.0.2")
	localES  = netaddr.MustParseAddr("100.1.1.1")
)

// localName is the one record daemon A serves itself (lispd.dns_local_us).
const localName = "h0.d0.example"

func remoteName(n int) string { return fmt.Sprintf("h%d.d1.example", n) }

// remoteEID is the address of remote name n, inside B's site prefix.
func remoteEID(n int) netaddr.Addr {
	return netaddr.AddrFrom4(100, 2, byte(1+n/200), byte(1+n%200))
}

func clientEID(s int) netaddr.Addr { return netaddr.AddrFrom4(100, 1, 1, byte(1+s)) }

// daemonConfig is lispd's testConfig for domain idx (0 = A, 1 = B), with
// B authoritative for the first `names` remote names.
func daemonConfig(idx, names int) *lispd.Config {
	other := 1 - idx
	cfg := &lispd.Config{
		Name:     fmt.Sprintf("d%d", idx),
		Listen:   "127.0.0.1:0",
		Seed:     int64(idx) + 1,
		EIDSpace: "100.0.0.0/8",
		Site: &lispd.SiteConfig{
			EIDPrefix: fmt.Sprintf("100.%d.0.0/16", idx+1),
			Locators: []lispd.LocatorConfig{
				{Name: fmt.Sprintf("P%d.0", idx), RLOC: fmt.Sprintf("10.%d.0.1", idx), BaseLatencyMillis: 12},
				{Name: fmt.Sprintf("P%d.1", idx), RLOC: fmt.Sprintf("10.%d.1.1", idx), BaseLatencyMillis: 25},
			},
		},
		PCE: &lispd.PCEConfig{
			Addr:             fmt.Sprintf("172.16.%d.1", idx),
			DNSAddr:          fmt.Sprintf("172.16.%d.2", idx),
			PendingTTLMillis: pendingTTLMillis,
		},
		Keys:      []lispd.KeyConfig{{ID: "plane", Secret: "pce-plane-key"}},
		AuthKeyID: "plane",
		DNS: &lispd.DNSConfig{
			Zone: fmt.Sprintf("d%d.example", idx),
			Views: []lispd.ViewConfig{
				{Name: "internal", CIDRs: []string{fmt.Sprintf("100.%d.0.0/16", idx+1)}, Recursion: true},
				{Name: "infra", CIDRs: []string{"172.16.0.0/12"}, Recursion: false},
			},
			Forward: []lispd.ForwardConfig{
				{Zone: fmt.Sprintf("d%d.example", other), Server: fmt.Sprintf("172.16.%d.2", other)},
			},
		},
	}
	if idx == 0 {
		cfg.DNS.Records = []lispd.RecordConfig{{Name: localName, Addr: localES.String()}}
	} else {
		for n := 0; n < names; n++ {
			cfg.DNS.Records = append(cfg.DNS.Records, lispd.RecordConfig{Name: remoteName(n), Addr: remoteEID(n).String()})
		}
	}
	return cfg
}

// generator is the single load socket. It sends every frame to daemon A
// and reads whatever either daemon routes back.
type generator struct {
	conn *net.UDPConn
	to   netip.AddrPort
	buf  []byte
	base time.Time
	// The read deadline is refreshed at most every timeout/8, so an op
	// times out after between timeout and 9/8 timeout without paying a
	// deadline update per read.
	timeout time.Duration
	rearmAt int64
}

func newGenerator(timeout time.Duration) (*generator, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("generator socket: %w", err)
	}
	return &generator{conn: conn, buf: make([]byte, 2048), base: time.Now(), timeout: timeout}, nil
}

func (g *generator) addr() *net.UDPAddr { return g.conn.LocalAddr().(*net.UDPAddr) }

func (g *generator) now() int64 { return int64(time.Since(g.base)) }

func (g *generator) send(frame []byte) error {
	_, err := g.conn.WriteToUDPAddrPort(frame, g.to)
	return err
}

// recv reads one frame into g.buf. now is the caller's latest clock
// reading; timedOut reports an expired deadline, any other error is
// fatal to the run.
func (g *generator) recv(now int64) (n int, timedOut bool, err error) {
	if now >= g.rearmAt {
		if err := g.conn.SetReadDeadline(time.Now().Add(g.timeout + g.timeout/8)); err != nil {
			return 0, false, err
		}
		g.rearmAt = now + int64(g.timeout/8)
	}
	n, _, err = g.conn.ReadFromUDPAddrPort(g.buf)
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			g.rearmAt = 0
			return 0, true, nil
		}
		return 0, false, err
	}
	return n, false, nil
}

// drain discards late frames after a timeout so the next op starts on a
// quiet socket.
func (g *generator) drain() {
	for {
		if err := g.conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
			return
		}
		if _, _, err := g.conn.ReadFromUDPAddrPort(g.buf); err != nil {
			g.rearmAt = 0
			return
		}
	}
}

// pair is the system under test: daemons A and B cross-wired like
// lispd's startPair, plus the generator as every end host.
type pair struct {
	a, b *lispd.Daemon
	gen  *generator
}

func newPair(names int, timeout time.Duration) (*pair, error) {
	gen, err := newGenerator(timeout)
	if err != nil {
		return nil, err
	}
	a, err := lispd.New(daemonConfig(0, names))
	if err != nil {
		gen.conn.Close()
		return nil, err
	}
	b, err := lispd.New(daemonConfig(1, names))
	if err != nil {
		a.Close()
		gen.conn.Close()
		return nil, err
	}
	pfx := netaddr.MustParsePrefix
	a.SetPeer(pfx("100.2.0.0/16"), b.RealAddr())
	a.SetPeer(pfx("10.1.0.0/16"), b.RealAddr())
	a.SetPeer(pfx("172.16.1.0/24"), b.RealAddr())
	b.SetPeer(pfx("100.1.0.0/16"), a.RealAddr())
	b.SetPeer(pfx("10.0.0.0/16"), a.RealAddr())
	b.SetPeer(pfx("172.16.0.0/24"), a.RealAddr())
	// The generator is the interior of both sites.
	a.SetPeer(pfx("100.1.0.0/16"), gen.addr())
	b.SetPeer(pfx("100.2.0.0/16"), gen.addr())
	gen.to = a.RealAddr().AddrPort()
	a.Start()
	b.Start()
	return &pair{a: a, b: b, gen: gen}, nil
}

func (p *pair) close() {
	p.a.Close()
	p.b.Close()
	p.gen.conn.Close()
}

// counters is one reading of every daemon counter the checks and the
// per-op ratios use. All of them are atomics, read while nothing is
// outstanding.
type counters struct {
	hostA, hostB overlay.Stats
	xtrA, xtrB   lisp.XTRStats
	pceA, pceB   core.Stats
}

func (p *pair) counters() counters {
	return counters{
		hostA: p.a.Host().Stats(), hostB: p.b.Host().Stats(),
		xtrA: p.a.XTR().Stats(), xtrB: p.b.XTR().Stats(),
		pceA: p.a.PCE().Stats(), pceB: p.b.PCE().Stats(),
	}
}

func (c counters) drops() uint64 {
	return c.hostA.NoRoute + c.hostA.Malformed + c.hostA.Unhandled +
		c.hostB.NoRoute + c.hostB.Malformed + c.hostB.Unhandled +
		c.pceA.AuthRejects + c.pceB.AuthRejects +
		c.xtrA.CacheMissDrops + c.xtrB.CacheMissDrops
}

func (c counters) frames() uint64 {
	return c.hostA.RxFrames + c.hostA.TxFrames + c.hostB.RxFrames + c.hostB.TxFrames
}

// Op states of a flow.
const (
	flowIdle = iota
	flowAwaitReply
	flowAwaitData
)

// rflow is one (client, remote name) flow with its pre-encoded frames
// and the state of its op in flight (a flow has at most one).
type rflow struct {
	es, ed netaddr.Addr
	query  []byte // DNS query frame; the DNS ID is the flow index
	data   []byte // small data frame
	large  []byte // large data frame (traced fwd_small only)
	seq    uint32

	state   uint8
	sampled bool  // this op records spans
	op      int64 // its span op id
	t0      int64 // op start (query send, or data send on fwd_small)
	tSent   int64 // first send returned (sampled ops only)
	tReply  int64 // DNS answer received
	tData   int64 // data send returned
}

// realPath is what fwd_small and flow_setup share: the pair, the flow
// set in its seeded visiting order, and the two closed-loop drivers.
type realPath struct {
	seed           int64
	sz             sizing
	m              *meter
	names, sources int

	p      *pair
	flows  []rflow
	order  []int32
	cursor int
	out    []int32 // flows with an op in flight, oldest first
	// rounds and roundLat collect a metered phase's rounds and the open
	// round's op latencies; both are sized once, in build.
	rounds   []roundRec
	roundLat hist

	// Histograms of the setup driver's two legs (flow_setup's spans).
	dnsWait, firstPkt hist

	// Tracing: every traceEvery-th op records spans.
	tr         *tracer
	traceEvery int64
	opSeq      int64
	spanOff    int64 // generator clock → tracer clock
	// Interned span names.
	nOp, nGenSend, nDNSWait, nDataSend, nSinkWait uint8
}

func (r *realPath) build(withLarge bool) error {
	p, err := newPair(r.names, r.sz.opTimeout)
	if err != nil {
		return err
	}
	r.p = p
	rng := rand.New(rand.NewSource(r.seed))
	r.flows = make([]rflow, r.names*r.sources)
	if len(r.flows) > 1<<16 {
		return fmt.Errorf("%d flows do not fit the 16-bit DNS ID that names them", len(r.flows))
	}
	for s := 0; s < r.sources; s++ {
		for n := 0; n < r.names; n++ {
			f := s*r.names + n
			fl := &r.flows[f]
			fl.es, fl.ed = clientEID(s), remoteEID(n)
			fl.query = runtime.EncodeUDP(fl.es, dnsAddrA, clientPort, packet.PortDNS, &packet.DNS{
				ID: uint16(f), RD: true,
				Questions: []packet.DNSQuestion{{Name: remoteName(n), Type: packet.DNSTypeA, Class: packet.DNSClassIN}},
			})
			fl.data = dataFrame(rng, fl.es, fl.ed, uint32(f), smallPayload)
			if withLarge {
				fl.large = dataFrame(rng, fl.es, fl.ed, uint32(f), largePayload)
			}
		}
	}
	// Visit every name once per source, in one seeded name order: any run
	// of consecutive ops shorter than the name count then carries distinct
	// names, so each DNS answer releases exactly one pending flow and one
	// MappingPush.
	nameOrder, srcOrder := rng.Perm(r.names), rng.Perm(r.sources)
	r.order = make([]int32, 0, len(r.flows))
	for _, s := range srcOrder {
		for _, n := range nameOrder {
			r.order = append(r.order, int32(s*r.names+n))
		}
	}
	r.out = make([]int32, 0, maxOutstanding)
	r.rounds = make([]roundRec, 0, 1<<12)
	return nil
}

// dataFrame encodes an inner IPv4/UDP frame for flow f with sequence 0.
func dataFrame(rng *rand.Rand, es, ed netaddr.Addr, f uint32, payloadLen int) []byte {
	payload := make([]byte, payloadLen)
	rng.Read(payload[payloadHdrLen:])
	binary.BigEndian.PutUint32(payload[payloadFlowOff:], f)
	binary.BigEndian.PutUint32(payload[payloadSeqOff+4:], ^uint32(0))
	return runtime.EncodeUDP(es, ed, dataSrcPort, dataDstPort, packet.Payload(payload))
}

// stampSeq writes the next sequence number into a data frame.
func stampSeq(frame []byte, seq uint32) {
	binary.BigEndian.PutUint32(frame[udpPayloadOff+payloadSeqOff:], seq)
	binary.BigEndian.PutUint32(frame[udpPayloadOff+payloadSeqOff+4:], ^seq)
}

func (r *realPath) nextFlow() int32 {
	f := r.order[r.cursor]
	r.cursor++
	if r.cursor == len(r.order) {
		r.cursor = 0
	}
	return f
}

func (r *realPath) trace(tr *tracer, every int64) {
	r.tr, r.traceEvery = tr, every
	if tr == nil {
		return
	}
	r.spanOff = int64(r.p.gen.base.Sub(tr.origin))
	r.nOp, r.nGenSend, r.nDNSWait = tr.name("op"), tr.name("gen.send"), tr.name("dns.wait")
	r.nDataSend, r.nSinkWait = tr.name("data.send"), tr.name("sink.wait")
}

// sample decides whether the op now starting records spans.
func (r *realPath) sample() bool {
	r.opSeq++
	return r.tr != nil && r.opSeq%r.traceEvery == 0
}

// forget drops flow f's op from the in-flight list.
func (r *realPath) forget(f int32) {
	for i, g := range r.out {
		if g == f {
			copy(r.out[i:], r.out[i+1:])
			r.out = r.out[:len(r.out)-1]
			break
		}
	}
	r.flows[f].state = flowIdle
}

// failAll fails every op in flight (a timeout) and quiets the socket.
func (r *realPath) failAll() int64 {
	n := int64(len(r.out))
	for _, f := range r.out {
		r.flows[f].state = flowIdle
	}
	r.out = r.out[:0]
	r.p.gen.drain()
	return n
}

// phase bounds one driver call. A driver works in rounds: it starts
// `round` ops with at most `outstanding` in flight, lets them all complete,
// and only then starts the next round, so a round is a closed burst whose
// cost nothing leaks out of. It runs whole rounds until `dur` has passed,
// or stops after exactly `limit` ops when limit > 0 (set-up passes).
type phase struct {
	outstanding int
	dur         time.Duration
	round       int
	limit       int64
	lat         *hist // nil = do not record
	// metered phases lap the meter at the end of every round and keep the
	// rounds; the others (the harness's own cost against the reflector)
	// leave the meter alone.
	metered bool
}

// phaseResult counts what a driver call did.
type phaseResult struct {
	ops, failed int64
	rounds      []roundRec
}

// pacer decides when a driver may start an op and when it stops. A timed
// phase ends on the first round boundary past its deadline; a failing
// phase ends at the deadline regardless, so a broken system cannot hold
// the run open.
type pacer struct {
	ph           phase
	deadline     int64
	started      int64 // over the phase
	roundStarted int   // in the open round
	roundOps     int64 // completed in the open round
	stopping     bool
}

func (r *realPath) pace(ph phase, now int64) pacer {
	r.rounds = r.rounds[:0]
	r.roundLat.reset()
	if ph.metered {
		r.m.lap() // what came before the phase is not the first round's
	}
	return pacer{ph: ph, deadline: now + int64(ph.dur)}
}

func (p *pacer) mayStart() bool { return !p.stopping && p.roundStarted < p.ph.round }

func (p *pacer) start() {
	p.roundStarted++
	if p.started++; p.started == p.ph.limit {
		p.stopping = true
	}
}

func (p *pacer) fail(now int64) {
	if p.ph.limit == 0 && now >= p.deadline {
		p.stopping = true
	}
}

// complete counts one op that took lat.
func (r *realPath) complete(pc *pacer, lat int64) {
	pc.roundOps++
	if pc.ph.lat != nil {
		pc.ph.lat.add(lat)
		r.roundLat.add(lat)
	}
}

// idle runs whenever nothing is in flight. Once the open round's ops have
// all been started that closes the round — a metered phase laps the meter
// and records it — and idle reports whether the phase is over. The
// caller's clock reading is stale afterwards.
func (r *realPath) idle(pc *pacer, now int64) bool {
	if pc.mayStart() {
		return false // a timeout emptied the pipeline mid-round
	}
	if pc.ph.metered {
		r.rounds = append(r.rounds, roundRec{ops: pc.roundOps, cost: r.m.lap(), p50: r.roundLat.quantile(0.5)})
		r.roundLat.reset()
	}
	pc.roundStarted, pc.roundOps = 0, 0
	pc.fail(now)
	return pc.stopping
}

// finish hands a driver call's rounds over.
func (r *realPath) finish(res *phaseResult) {
	res.rounds = append([]roundRec(nil), r.rounds...)
}

// next reads the next frame for a driver. A timeout fails every op in
// flight and returns ok=false; the driver then just loops. now is updated
// either way.
func (r *realPath) next(pc *pacer, res *phaseResult, now *int64) (rx []byte, ok bool, err error) {
	g := r.p.gen
	n, timedOut, err := g.recv(*now)
	if err != nil {
		return nil, false, fmt.Errorf("generator receive: %w", err)
	}
	if timedOut {
		res.failed += r.failAll()
	}
	*now = g.now()
	if timedOut {
		pc.fail(*now)
		return nil, false, nil
	}
	return g.buf[:n], true, nil
}

// forward is the fwd_small driver: data frames sent to daemon A as their
// client, encapsulated, tunnelled, decapsulated by B and read back. Each
// received frame must be byte-identical to the one in flight for its
// flow, and flows must come back in the order they were sent.
func (r *realPath) forward(ph phase, large bool) (phaseResult, error) {
	g := r.p.gen
	var res phaseResult
	frameOf := func(f int32) []byte {
		if large {
			return r.flows[f].large
		}
		return r.flows[f].data
	}
	pc := r.pace(ph, g.now())
	now := g.now()
	for {
		for pc.mayStart() && len(r.out) < ph.outstanding {
			f := r.nextFlow()
			fl := &r.flows[f]
			fl.seq++
			frame := frameOf(f)
			stampSeq(frame, fl.seq)
			fl.state, fl.t0, fl.sampled, fl.op = flowAwaitData, now, r.sample(), r.opSeq
			if err := g.send(frame); err != nil {
				return res, fmt.Errorf("generator send: %w", err)
			}
			if fl.sampled {
				fl.tSent = g.now()
			}
			r.out = append(r.out, f)
			pc.start()
		}
		if len(r.out) == 0 {
			if r.idle(&pc, now) {
				break
			}
			now = g.now()
			continue
		}
		rx, ok, err := r.next(&pc, &res, &now)
		if err != nil {
			return res, err
		}
		if !ok {
			continue
		}
		f, ok := dataFlowID(rx, len(r.flows))
		if !ok || r.flows[f].state != flowAwaitData {
			res.failed++ // a frame no op in flight accounts for
			pc.fail(now)
			continue
		}
		// Everything sent before f that has not come back is lost: the
		// path is FIFO end to end.
		for r.out[0] != f {
			r.forget(r.out[0])
			res.failed++
		}
		fl := &r.flows[f]
		r.forget(f)
		if !bytes.Equal(rx, frameOf(f)) {
			res.failed++
			pc.fail(now)
			continue
		}
		res.ops++
		r.complete(&pc, now-fl.t0)
		if fl.sampled {
			off := r.spanOff
			op := r.tr.add(r.nOp, noSpan, fl.op, fl.t0+off, now+off)
			r.tr.add(r.nGenSend, op, fl.op, fl.t0+off, fl.tSent+off)
			r.tr.add(r.nSinkWait, op, fl.op, fl.tSent+off, now+off)
		}
	}
	r.finish(&res)
	return res, nil
}

// dataFlowID reads the flow id out of a data frame's payload.
func dataFlowID(frame []byte, flows int) (int32, bool) {
	_, dport, payload, ok := packet.PeekUDPPayload(frame)
	if !ok || dport != dataDstPort || len(payload) < payloadHdrLen {
		return 0, false
	}
	f := binary.BigEndian.Uint32(payload[payloadFlowOff:])
	if f >= uint32(flows) {
		return 0, false
	}
	return int32(f), true
}

// setups is the flow_setup driver, one op being the paper's whole
// sequence: DNS query to A's front end, forwarded to B, B's PCED wraps
// the answer with the mapping, A's PCES pushes the flow to the ITR, the
// answer reaches the client, the client sends its first data packet, and
// it arrives decapsulated. deep additionally runs every answer through
// the full packet decoder (set-up passes).
func (r *realPath) setups(ph phase, deep bool) (phaseResult, error) {
	g := r.p.gen
	var res phaseResult
	pc := r.pace(ph, g.now())
	now := g.now()
	// fail counts one failed op or stray frame.
	fail := func() {
		res.failed++
		pc.fail(now)
	}
	for {
		for pc.mayStart() && len(r.out) < ph.outstanding {
			f := r.nextFlow()
			fl := &r.flows[f]
			fl.state, fl.t0, fl.sampled, fl.op = flowAwaitReply, now, r.sample(), r.opSeq
			if err := g.send(fl.query); err != nil {
				return res, fmt.Errorf("generator send: %w", err)
			}
			if fl.sampled {
				fl.tSent = g.now()
			}
			r.out = append(r.out, f)
			pc.start()
		}
		if len(r.out) == 0 {
			if r.idle(&pc, now) {
				break
			}
			now = g.now()
			continue
		}
		rx, ok, err := r.next(&pc, &res, &now)
		if err != nil {
			return res, err
		}
		if !ok {
			continue
		}
		sport, _, payload, ok := packet.PeekUDPPayload(rx)
		if !ok {
			fail()
			continue
		}
		if sport == packet.PortDNS {
			// The DNS answer: check it, then send the first data packet.
			if len(payload) < 2 {
				fail()
				continue
			}
			f := int32(binary.BigEndian.Uint16(payload))
			if int(f) >= len(r.flows) || r.flows[f].state != flowAwaitReply {
				fail()
				continue
			}
			fl := &r.flows[f]
			if !validAnswer(rx, payload, fl) || (deep && !decodedAnswerOK(rx, uint16(f), fl.ed)) {
				r.forget(f)
				fail()
				continue
			}
			fl.tReply = now
			fl.seq++
			stampSeq(fl.data, fl.seq)
			if err := g.send(fl.data); err != nil {
				return res, fmt.Errorf("generator send: %w", err)
			}
			fl.tData = now
			if fl.sampled {
				fl.tData = g.now()
			}
			fl.state = flowAwaitData
			continue
		}
		f, ok := dataFlowID(rx, len(r.flows))
		if !ok || r.flows[f].state != flowAwaitData {
			fail()
			continue
		}
		fl := &r.flows[f]
		r.forget(f)
		if !bytes.Equal(rx, fl.data) {
			fail()
			continue
		}
		res.ops++
		r.complete(&pc, now-fl.t0)
		if ph.lat != nil {
			r.dnsWait.add(fl.tReply - fl.t0)
			r.firstPkt.add(now - fl.tReply)
		}
		if fl.sampled {
			off := r.spanOff
			op := r.tr.add(r.nOp, noSpan, fl.op, fl.t0+off, now+off)
			r.tr.add(r.nGenSend, op, fl.op, fl.t0+off, fl.tSent+off)
			r.tr.add(r.nDNSWait, op, fl.op, fl.tSent+off, fl.tReply+off)
			r.tr.add(r.nDataSend, op, fl.op, fl.tReply+off, fl.tData+off)
			r.tr.add(r.nSinkWait, op, fl.op, fl.tData+off, now+off)
		}
	}
	r.finish(&res)
	return res, nil
}

// validAnswer checks a DNS answer frame without allocating: addressed to
// the querying client, a response without error carrying exactly one
// answer record and nothing after it, whose address — the last four
// bytes of the message — is the flow's destination EID.
func validAnswer(frame, dns []byte, fl *rflow) bool {
	dst, _ := packet.PeekIPv4Dst(frame)
	_, dport, _, _ := packet.PeekUDPPayload(frame)
	if dst != fl.es || dport != clientPort || len(dns) < 12+4 {
		return false
	}
	qr, rcode := dns[2]&0x80 != 0, dns[3]&0x0f
	ancount := binary.BigEndian.Uint16(dns[6:])
	nsarcount := binary.BigEndian.Uint32(dns[8:])
	if !qr || rcode != 0 || ancount != 1 || nsarcount != 0 {
		return false
	}
	return netaddr.AddrFromBytes(dns[len(dns)-4:]) == fl.ed
}

// decodedAnswerOK is the same check through the packet decoder.
func decodedAnswerOK(frame []byte, id uint16, ed netaddr.Addr) bool {
	pk := packet.NewPacket(frame, packet.LayerTypeIPv4, packet.Default)
	l := pk.Layer(packet.LayerTypeDNS)
	if l == nil {
		return false
	}
	ans := l.(*packet.DNS)
	got, ok := ans.FirstA()
	return ans.ID == id && ans.QR && ok && got == ed
}

// measuredPhase is a driver call with what it charged the Go heap and the
// daemon counters on either side of it.
type measuredPhase struct {
	phaseResult
	mem    memDelta
	c0, c1 counters
}

func (r *realPath) measured(fn func() (phaseResult, error)) (measuredPhase, error) {
	m := measuredPhase{c0: r.p.counters()}
	s0 := snapMem()
	res, err := fn()
	m.mem = s0.until(snapMem())
	m.phaseResult, m.c1 = res, r.p.counters()
	return m, err
}

// viaReflector runs fn with the generator pointed at a one-goroutine UDP
// reflector instead of daemon A, tracing off: what is left is the harness
// alone.
func (r *realPath) viaReflector(fn func() error) error {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // socket closed
			}
			if _, err := conn.WriteToUDPAddrPort(buf[:n], from); err != nil {
				return
			}
		}
	}()
	g := r.p.gen
	daemon, tr := g.to, r.tr
	g.to, r.tr = conn.LocalAddr().(*net.UDPAddr).AddrPort(), nil
	err = fn()
	g.to, r.tr = daemon, tr
	conn.Close()
	<-done
	return err
}

// harnessCPU measures the generator's own cost per op: the forward driver
// against the reflector. The reflector does the mirror image of the
// generator's work (one read, one write per frame), so half the process
// CPU per op is the generator's share.
func (r *realPath) harnessCPU(ops int64) (float64, error) {
	var perOp float64
	err := r.viaReflector(func() error {
		var ru0, ru1 syscall.Rusage
		// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
		res, err := r.forward(phase{outstanding: 1, round: int(ops), limit: ops}, false)
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
		if err != nil {
			return err
		}
		if res.ops != ops {
			return fmt.Errorf("reflector returned %d of %d frames", res.ops, ops)
		}
		cpu := ru1.Utime.Nano() + ru1.Stime.Nano() - ru0.Utime.Nano() - ru0.Stime.Nano()
		perOp = float64(cpu) / 1e3 / float64(ops) / 2
		return nil
	})
	return perOp, err
}

func (r *realPath) close() {
	if r.p != nil {
		r.p.close()
	}
}

// dropCheck notes any daemon drop counter that moved over a window.
func dropCheck(res *windowResult, m measuredPhase) {
	if d := m.c1.drops() - m.c0.drops(); d != 0 {
		res.notes = append(res.notes, fmt.Sprintf("daemon drop counters moved by %d over the window (NoRoute, Malformed, Unhandled, AuthRejects, CacheMissDrops)", d))
	}
}

func expect(res *windowResult, what string, got, want uint64) {
	if got != want {
		res.notes = append(res.notes, fmt.Sprintf("%s = %d, want %d", what, got, want))
	}
}

// settle fills in what both real-path windows derive the same way from
// their lat and sat phases: op counts, both phases' rounds, the
// exact per-op counter ratios, the xTR delta checks, and the harness's own
// CPU per op measured against the reflector.
func (r *realPath) settle(out *windowResult, lat, sat measuredPhase, harnessOps int64) error {
	dropCheck(out, lat)
	dropCheck(out, sat)
	c0, c1 := sat.c0, sat.c1
	encap := c1.xtrA.EncapPackets - c0.xtrA.EncapPackets
	if sat.failed == 0 {
		expect(out, "A EncapPackets over sat", encap, uint64(sat.ops))
		expect(out, "B DecapPackets over sat", c1.xtrB.DecapPackets-c0.xtrB.DecapPackets, uint64(sat.ops))
	}
	out.attempted = lat.ops + lat.failed + sat.ops + sat.failed
	out.failed = lat.failed + sat.failed
	out.rounds, out.latRounds = sat.rounds, lat.rounds
	out.mem, out.costOps = sat.mem, sat.ops
	if sat.ops > 0 {
		out.layer["overlay.frames_per_op"] = float64(c1.frames()-c0.frames()) / float64(sat.ops)
		out.layer["overlay.drops_per_op"] = float64(c1.drops()-c0.drops()) / float64(sat.ops)
	}
	if encap > 0 {
		out.layer["lisp.flow_path_share"] = float64(c1.xtrA.FlowMappingsUsed-c0.xtrA.FlowMappingsUsed) / float64(encap)
	}
	harness, err := r.harnessCPU(harnessOps)
	if err != nil {
		return fmt.Errorf("harness reflector: %w", err)
	}
	out.layer["harness.cpu_us_per_op"] = harness
	out.info = append(out.info, fmt.Sprintf("harness.cpu_us_per_op %.4f us (generator vs a UDP reflector, half the process CPU per op)", harness))
	return nil
}

// ---- fwd_small -----------------------------------------------------------

// fwdSmall is bare forwarding at the smallest size: the flows are
// resolved in set-up, so the window exercises only the data path
// (overlay read loop, loop hand-off, sniffers, encap fast path, socket
// write, raw-bind decap) while the control plane idles.
type fwdSmall struct {
	realPath
}

const (
	// setupSlices is how many rounds, and so meter laps, a set-up pass is
	// cut into.
	setupSlices   = 8
	fwdLatShare   = 0.25 // of the window with 1 outstanding; the rest saturates
	fwdSatWindow  = 32
	fwdTraceEvery = 64
	fwdHarnessOps = 20_000
	fwdLargeShare = 0.25 // traced windows append a large-payload phase this long
	fwdSources    = 8    // flows = names × sources
)

func newFwdSmall(seed int64, sz sizing, m *meter) *fwdSmall {
	return &fwdSmall{realPath{seed: seed, sz: sz, m: m, names: sz.fwdFlows / fwdSources, sources: fwdSources}}
}

func (w *fwdSmall) stamp() string {
	return fmt.Sprintf("op=one %d-byte-payload frame client->A->tunnel->B->server, byte-compared; %d flows round-robin; phases lat(1 outstanding, %.0f%%) sat(%d outstanding); round=%d packets; set-up=resolve every flow via DNS->PCE->push + %d warm-up packets",
		smallPayload, w.names*w.sources, fwdLatShare*100, fwdSatWindow, w.sz.fwdRound, w.sz.fwdWarmup)
}

func (w *fwdSmall) setup() error {
	if err := w.build(true); err != nil {
		return err
	}
	flows := int64(len(w.flows))
	res, err := w.setups(phase{outstanding: 8, round: int(flows), limit: flows, metered: true}, true)
	if err != nil {
		return err
	}
	if res.failed != 0 || res.ops != flows {
		return fmt.Errorf("resolved %d of %d flows (%d failed)", res.ops, flows, res.failed)
	}
	warm := int64(w.sz.fwdWarmup)
	res, err = w.forward(phase{outstanding: fwdSatWindow, round: max(int(warm)/setupSlices, 1), limit: warm, metered: true}, false)
	if err != nil {
		return err
	}
	if res.failed != 0 {
		return fmt.Errorf("warm-up lost %d of %d packets", res.failed, warm)
	}
	return nil
}

func (w *fwdSmall) window(d time.Duration, tr *tracer) (windowResult, error) {
	out := windowResult{lat: &hist{}, layer: make(map[string]float64)}
	w.trace(tr, fwdTraceEvery)
	latDur := time.Duration(float64(d) * fwdLatShare)

	lat, err := w.measured(func() (phaseResult, error) {
		return w.forward(phase{outstanding: 1, dur: latDur, round: w.sz.fwdRound, lat: out.lat, metered: true}, false)
	})
	if err != nil {
		return out, err
	}
	var satLat hist
	sat, err := w.measured(func() (phaseResult, error) {
		return w.forward(phase{outstanding: fwdSatWindow, dur: d - latDur, round: w.sz.fwdRound, lat: &satLat, metered: true}, false)
	})
	if err != nil {
		return out, err
	}
	if err := w.settle(&out, lat, sat, min(fwdHarnessOps, int64(w.sz.fwdWarmup))); err != nil {
		return out, err
	}
	out.layer["fwd.sat_latency_p50_us"] = satLat.quantile(0.5) / 1e3

	if tr != nil {
		large, err := w.measured(func() (phaseResult, error) {
			return w.forward(phase{outstanding: fwdSatWindow, dur: time.Duration(float64(d) * fwdLargeShare), round: w.sz.fwdRound, metered: true}, true)
		})
		if err != nil {
			return out, err
		}
		dropCheck(&out, large)
		out.attempted += large.ops + large.failed
		out.failed += large.failed
		out.layer["fwd.large_ops_per_s"] = median(perRound(large.rounds, opsPerSecond))
	}
	out.info = append(out.info, fmt.Sprintf("fwd_small lat: n=%d; sat: rounds=%d p50=%.3f us; flow_path_share=%.4f",
		out.lat.n, len(out.rounds), satLat.quantile(0.5)/1e3, out.layer["lisp.flow_path_share"]))
	return out, nil
}

// ---- flow_setup ----------------------------------------------------------

// flowSetup is the paper's headline latency on the real stack: DNS query
// to first decapsulated data packet. The control path (DNS front end, PCE
// handlers, PCECP and DNS codecs, flow install, timers) does the work;
// it writes the tables fwd_small only reads.
type flowSetup struct {
	realPath
}

const (
	setupLatShare   = 0.5 // of the window with 1 outstanding
	setupSatWindow  = 8
	setupTraceEvery = 8
	setupHarnessOps = 20_000
)

func newFlowSetup(seed int64, sz sizing, m *meter) *flowSetup {
	return &flowSetup{realPath{seed: seed, sz: sz, m: m, names: sz.setupNames, sources: sz.setupSources}}
}

func (w *flowSetup) stamp() string {
	return fmt.Sprintf("op=DNS query->A->B->PCED encap->PCES push->answer->first data packet->decap; %d names x %d sources = %d flows cycled; phases lat(1 outstanding, %.0f%%) sat(%d outstanding); round=%d setups; set-up=two full passes (fill, then warm-up)",
		w.names, w.sources, w.names*w.sources, setupLatShare*100, setupSatWindow, w.sz.setupRound)
}

func (w *flowSetup) setup() error {
	if err := w.build(false); err != nil {
		return err
	}
	flows := int64(len(w.flows))
	// The first pass fills every table and checks each answer through the
	// full decoder; the second is warm-up on the refresh path the window
	// runs on.
	for pass, deep := range []bool{true, false} {
		res, err := w.setups(phase{outstanding: setupSatWindow, round: max(int(flows)/setupSlices, 1), limit: flows, metered: true}, deep)
		if err != nil {
			return err
		}
		if res.failed != 0 || res.ops != flows {
			return fmt.Errorf("pass %d set up %d of %d flows (%d failed)", pass, res.ops, flows, res.failed)
		}
	}
	return nil
}

func (w *flowSetup) window(d time.Duration, tr *tracer) (windowResult, error) {
	out := windowResult{lat: &hist{}, layer: make(map[string]float64)}
	w.trace(tr, setupTraceEvery)
	w.dnsWait.reset()
	w.firstPkt.reset()
	latDur := time.Duration(float64(d) * setupLatShare)

	lat, err := w.measured(func() (phaseResult, error) {
		return w.setups(phase{outstanding: 1, dur: latDur, round: w.sz.setupRound, lat: out.lat, metered: true}, false)
	})
	if err != nil {
		return out, err
	}
	sat, err := w.measured(func() (phaseResult, error) {
		return w.setups(phase{outstanding: setupSatWindow, dur: d - latDur, round: w.sz.setupRound, metered: true}, false)
	})
	if err != nil {
		return out, err
	}
	if err := w.settle(&out, lat, sat, min(setupHarnessOps, int64(len(w.flows)))); err != nil {
		return out, err
	}
	c0, c1 := sat.c0, sat.c1
	pushes := c1.pceA.MappingPushes - c0.pceA.MappingPushes
	if sat.failed == 0 {
		expect(&out, "A MappingPushes over sat", pushes, uint64(sat.ops))
	}
	if ops := float64(sat.ops); ops > 0 {
		msgs := (c1.pceA.TxControlMessages - c0.pceA.TxControlMessages) + (c1.pceB.TxControlMessages - c0.pceB.TxControlMessages)
		ctlBytes := (c1.pceA.TxControlBytes - c0.pceA.TxControlBytes) + (c1.pceB.TxControlBytes - c0.pceB.TxControlBytes)
		out.layer["core.pushes_per_op"] = float64(pushes) / ops
		out.layer["core.ctl_msgs_per_op"] = float64(msgs) / ops
		out.layer["core.ctl_bytes_per_op"] = float64(ctlBytes) / ops
	}
	dnsWait, firstPkt := w.dnsWait.quantile(0.5), w.firstPkt.quantile(0.5)
	out.layer["lispd.dns_wait_us"] = dnsWait / 1e3
	out.layer["lispd.first_packet_us"] = firstPkt / 1e3
	if dnsWait > 0 {
		out.layer["lispd.tdns_ratio"] = (dnsWait + firstPkt) / dnsWait
	}
	out.info = append(out.info, fmt.Sprintf("flow_setup lat: n=%d dns_wait p50=%.3f us first_packet p50=%.3f us; sat: rounds=%d pushes_per_op=%.4f",
		out.lat.n, dnsWait/1e3, firstPkt/1e3, len(out.rounds), out.layer["core.pushes_per_op"]))
	return out, nil
}
