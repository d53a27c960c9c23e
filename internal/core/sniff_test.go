package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/irc"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// oracleSniffFrame is the inspector SniffFrame replaced, kept as the
// reference the tests compare against: it decodes the whole frame into
// layer structs and hands the decoded fields to the shared decision core.
func oracleSniffFrame(p *PCE, data []byte) runtime.Verdict {
	pk := packet.NewPacket(data, packet.LayerTypeIPv4, packet.NoCopy)
	ipl := pk.Layer(packet.LayerTypeIPv4)
	if ipl == nil {
		return runtime.VerdictPass
	}
	ip := ipl.(*packet.IPv4)
	if ip.Protocol != packet.IPProtocolUDP {
		return runtime.VerdictPass
	}
	udpl := pk.Layer(packet.LayerTypeUDP)
	if udpl == nil {
		return runtime.VerdictPass
	}
	udp := udpl.(*packet.UDP)
	if p.sniffUDP(ip.DstIP, udp.SrcPort, udp.DstPort, udp.LayerPayload()) {
		return runtime.VerdictConsume
	}
	return runtime.VerdictPass
}

// sniffHost is a frozen-clock runtime and a frame-recording host in one:
// everything a sniffed frame makes the PCE emit lands in sent.
type sniffHost struct {
	rng  *rand.Rand
	sent [][]byte
}

func (h *sniffHost) Now() runtime.Time                                                  { return time.Second }
func (h *sniffHost) Rand() runtime.Rand                                                 { return h.rng }
func (h *sniffHost) ScheduleTimer(runtime.Time, runtime.TimerHandler, runtime.TimerArg) {}
func (h *sniffHost) TimerAt(runtime.Time, runtime.TimerHandler, runtime.TimerArg)       {}

func (h *sniffHost) HostName() string                         { return "pce" }
func (h *sniffHost) HasAddr(netaddr.Addr) bool                { return false }
func (h *sniffHost) EgressByAddr(netaddr.Addr) runtime.Egress { return nil }
func (h *sniffHost) AddrUp(netaddr.Addr) bool                 { return true }
func (h *sniffHost) RouteUp(netaddr.Addr) bool                { return true }
func (h *sniffHost) Output(data []byte) error                 { h.sent = append(h.sent, data); return nil }
func (h *sniffHost) OutputVia(_ runtime.Egress, data []byte)  { h.Output(data) }
func (h *sniffHost) OutputUDP(src, dst netaddr.Addr, sport, dport uint16, app ...packet.SerializableLayer) int {
	data := runtime.EncodeUDP(src, dst, sport, dport, app...)
	h.Output(data)
	return len(data)
}
func (h *sniffHost) BindUDP(netaddr.Addr, uint16, runtime.UDPHandler) {}
func (h *sniffHost) BindUDPRaw(uint16, runtime.RawUDPHandler)         {}
func (h *sniffHost) AddFrameSniffer(runtime.FrameSniffer)             {}
func (h *sniffHost) JoinGroup(netaddr.Addr)                           {}

// The sniff tests' address plan: a PCE for EID prefix 100.1/16 with its
// DNSS at 172.16.1.2, and a remote domain behind 172.16.2.x / 100.2/16.
var (
	sniffPCEAddr   = netaddr.MustParseAddr("172.16.1.1")
	sniffDNSS      = netaddr.MustParseAddr("172.16.1.2")
	sniffAuthDNS   = netaddr.MustParseAddr("172.16.1.3")
	sniffEIDs      = netaddr.MustParsePrefix("100.1.0.0/16")
	sniffLocalEID  = netaddr.MustParseAddr("100.1.0.7")
	sniffRemotePCE = netaddr.MustParseAddr("172.16.2.1")
	sniffRemoteDNS = netaddr.MustParseAddr("172.16.2.2")
	sniffRemoteEID = netaddr.MustParseAddr("100.2.0.9")
	sniffKey       = []byte("sniff-test-key")
)

// newSniffPCE builds a PCE with PCECP auth on, one step-1 flow pending for
// the remote name, over its own recording host. Two calls yield PCEs in
// identical states (same seed), which is what lets the tests run one
// inspector on each and compare everything observable.
func newSniffPCE() (*PCE, *sniffHost) {
	h := &sniffHost{rng: rand.New(rand.NewSource(42))}
	engine := irc.NewEngine(h, []*irc.Provider{
		{Name: "A", RLOC: netaddr.MustParseAddr("10.1.0.1"), BaseLatency: 10 * time.Millisecond},
		{Name: "B", RLOC: netaddr.MustParseAddr("10.1.1.1"), BaseLatency: 20 * time.Millisecond},
	}, irc.MinLatency{})
	p := NewWithRuntime(h, h, Config{
		Addr: sniffPCEAddr, EIDPrefix: sniffEIDs, DNSAddr: sniffDNSS,
		Engine: engine, AuthKey: sniffKey,
	})
	p.NoteClientQuery(sniffLocalEID, "h0.d2.example")
	return p, h
}

func dnsReply(aa bool, answer netaddr.Addr) *packet.DNS {
	return &packet.DNS{
		ID: 7, QR: true, AA: aa,
		Questions: []packet.DNSQuestion{{Name: "h0.d2.example", Type: packet.DNSTypeA, Class: packet.DNSClassIN}},
		Answers: []packet.DNSResourceRecord{{
			Name: "h0.d2.example", Type: packet.DNSTypeA, Class: packet.DNSClassIN, TTL: 60, IP: answer,
		}},
	}
}

func encapReply(key []byte) *packet.PCECP {
	msg := &packet.PCECP{
		Version: packet.PCECPVersion, Type: packet.PCECPEncapDNSReply,
		Nonce: 99, PCEAddr: sniffRemotePCE,
		Prefixes: []packet.PCEPrefixMapping{{
			Prefix: netaddr.MustParsePrefix("100.2.0.0/16"), TTL: 300,
			Locators: []packet.LISPLocator{{Priority: 1, Weight: 100, Reachable: true, Addr: netaddr.MustParseAddr("10.2.0.1")}},
		}},
	}
	if key != nil {
		msg.KeyID, msg.AuthKey = 1, key
	}
	return msg
}

// patch returns a copy of frame with edit applied.
func patch(frame []byte, edit func(b []byte)) []byte {
	b := bytes.Clone(frame)
	edit(b)
	return b
}

// sniffFrames is the equivalence table (and the fuzz seed corpus): every
// way a frame can be malformed below the UDP payload, plus each branch of
// the PCES and PCED decisions.
func sniffFrames() map[string][]byte {
	portP := runtime.EncodeUDP(sniffRemotePCE, sniffDNSS, packet.PortPCECP, packet.PortPCECP,
		encapReply(sniffKey), packet.Payload(packet.Serialize(dnsReply(true, sniffRemoteEID))))
	localAA := runtime.EncodeUDP(sniffAuthDNS, sniffRemoteDNS, packet.PortDNS, 33000, dnsReply(true, sniffLocalEID))

	// The same signed port-P datagram behind a 24-byte IPv4 header.
	optIP := &packet.IPv4{TTL: 64, Protocol: packet.IPProtocolUDP, SrcIP: sniffRemotePCE, DstIP: sniffDNSS,
		Options: []byte{1, 1, 1, 1}}
	optUDP := &packet.UDP{SrcPort: packet.PortPCECP, DstPort: packet.PortPCECP}
	optUDP.SetNetworkLayerForChecksum(optIP)
	withOptions := packet.Serialize(optIP, optUDP, encapReply(sniffKey),
		packet.Payload(packet.Serialize(dnsReply(true, sniffRemoteEID))))

	return map[string][]byte{
		"empty":                  {},
		"truncated-ipv4":         portP[:10],
		"truncated-in-udp":       portP[:24],
		"bad-version":            patch(portP, func(b []byte) { b[0] = 0x65 }),
		"ihl-below-5":            patch(portP, func(b []byte) { b[0] = 0x44 }),
		"ihl-past-frame":         patch(localAA[:40], func(b []byte) { b[0] = 0x4f; b[2], b[3] = 0, 40 }),
		"ihl-6-options":          withOptions,
		"total-len-past-frame":   patch(portP, func(b []byte) { b[2], b[3] = 0xff, 0xff }),
		"total-len-below-header": patch(portP, func(b []byte) { b[2], b[3] = 0, 10 }),
		"trailing-garbage":       append(bytes.Clone(portP), 0xde, 0xad, 0xbe, 0xef),
		"non-udp":                patch(portP, func(b []byte) { b[9] = byte(packet.IPProtocolTCP) }),
		"udp-len-past-datagram":  patch(portP, func(b []byte) { b[24], b[25] = 0xff, 0xff }),
		"udp-len-below-header":   patch(portP, func(b []byte) { b[24], b[25] = 0, 4 }),
		"udp-len-short-portp":    patch(portP, func(b []byte) { b[24], b[25] = 0, 20 }),
		"udp-len-short-dns":      patch(localAA, func(b []byte) { b[24], b[25] = 0, 30 }),
		"portp-to-dnss":          portP,
		"portp-not-to-dnss": runtime.EncodeUDP(sniffRemotePCE, sniffPCEAddr, packet.PortPCECP, packet.PortPCECP,
			encapReply(sniffKey)),
		"portp-forged-unsigned": runtime.EncodeUDP(sniffRemotePCE, sniffDNSS, packet.PortPCECP, packet.PortPCECP,
			encapReply(nil), packet.Payload(packet.Serialize(dnsReply(true, sniffRemoteEID)))),
		"portp-forged-wrong-key": runtime.EncodeUDP(sniffRemotePCE, sniffDNSS, packet.PortPCECP, packet.PortPCECP,
			encapReply([]byte("not-the-key"))),
		"portp-garbage": runtime.EncodeUDP(sniffRemotePCE, sniffDNSS, packet.PortPCECP, packet.PortPCECP,
			packet.Payload("not pcecp")),
		"portp-mapping-update": runtime.EncodeUDP(sniffRemotePCE, sniffDNSS, packet.PortPCECP, packet.PortPCECP,
			&packet.PCECP{Version: packet.PCECPVersion, Type: packet.PCECPMappingUpdate, Nonce: 5,
				PCEAddr: sniffRemotePCE, KeyID: 1, AuthKey: sniffKey,
				Prefixes: encapReply(nil).Prefixes}),
		"dns-aa-local-eid":     localAA,
		"dns-aa-non-local-eid": runtime.EncodeUDP(sniffAuthDNS, sniffRemoteDNS, packet.PortDNS, 33000, dnsReply(true, sniffRemoteEID)),
		"dns-non-aa-local-eid": runtime.EncodeUDP(sniffAuthDNS, sniffRemoteDNS, packet.PortDNS, 33000, dnsReply(false, sniffLocalEID)),
		"dns-aa-to-own-dnss":   runtime.EncodeUDP(sniffAuthDNS, sniffDNSS, packet.PortDNS, 33000, dnsReply(true, sniffLocalEID)),
		"dns-aa-to-local-host": runtime.EncodeUDP(sniffAuthDNS, sniffLocalEID, packet.PortDNS, 33000, dnsReply(true, sniffLocalEID)),
		"dns-garbage":          runtime.EncodeUDP(sniffAuthDNS, sniffRemoteDNS, packet.PortDNS, 33000, packet.Payload("xx")),
		"dns-query-from-53":    runtime.EncodeUDP(sniffAuthDNS, sniffRemoteDNS, packet.PortDNS, 33000, &packet.DNS{ID: 1}),
		"lisp-data-4341": runtime.EncodeUDP(netaddr.MustParseAddr("10.2.0.1"), netaddr.MustParseAddr("10.1.0.1"),
			packet.PortLISPData, packet.PortLISPData, &packet.LISP{NonceP: true, Nonce: 1},
			packet.Payload(runtime.EncodeUDP(sniffRemoteEID, sniffLocalEID, 1, 2, packet.Payload("data")))),
	}
}

// checkSniffAgrees runs frame through SniffFrame on one fresh PCE and
// through the oracle on another, and fails on any observable difference:
// verdict, Stats() counters, or the frames the PCE emitted.
func checkSniffAgrees(t *testing.T, frame []byte) (runtime.Verdict, Stats) {
	t.Helper()
	pNew, hNew := newSniffPCE()
	pOld, hOld := newSniffPCE()
	got := pNew.SniffFrame(bytes.Clone(frame))
	want := oracleSniffFrame(pOld, bytes.Clone(frame))
	if got != want {
		t.Fatalf("verdict = %d, oracle says %d (frame %x)", got, want, frame)
	}
	if gs, ws := pNew.Stats(), pOld.Stats(); gs != ws {
		t.Fatalf("stats diverge (frame %x)\n new    %+v\n oracle %+v", frame, gs, ws)
	}
	if !reflect.DeepEqual(hNew.sent, hOld.sent) {
		t.Fatalf("emitted frames diverge (frame %x)\n new    %x\n oracle %x", frame, hNew.sent, hOld.sent)
	}
	return got, pNew.Stats()
}

func TestSniffFrameMatchesDecodeOracle(t *testing.T) {
	base, _ := newSniffPCE()
	idle := base.Stats()
	// What each branch must do, so the table cannot pass by both
	// inspectors ignoring everything. Frames not listed pass untouched.
	expect := map[string]struct {
		verdict runtime.Verdict
		moved   func(s Stats) bool
	}{
		"portp-to-dnss":          {runtime.VerdictConsume, func(s Stats) bool { return s.EncapRepliesReceived == 1 && s.MappingPushes == 1 }},
		"ihl-6-options":          {runtime.VerdictConsume, func(s Stats) bool { return s.EncapRepliesReceived == 1 && s.MappingPushes == 1 }},
		"trailing-garbage":       {runtime.VerdictConsume, func(s Stats) bool { return s.EncapRepliesReceived == 1 }},
		"portp-forged-unsigned":  {runtime.VerdictConsume, func(s Stats) bool { return s.AuthRejects == 1 && s.EncapRepliesReceived == 0 }},
		"portp-forged-wrong-key": {runtime.VerdictConsume, func(s Stats) bool { return s.AuthRejects == 1 }},
		"portp-mapping-update":   {runtime.VerdictConsume, func(s Stats) bool { return s.WeightUpdatesReceived == 1 }},
		"dns-aa-local-eid":       {runtime.VerdictConsume, func(s Stats) bool { return s.EncapRepliesSent == 1 && s.TxControlMessages == 1 }},
	}
	for name, frame := range sniffFrames() {
		t.Run(name, func(t *testing.T) {
			verdict, stats := checkSniffAgrees(t, frame)
			want, listed := expect[name]
			if !listed {
				if verdict != runtime.VerdictPass || stats != idle {
					t.Fatalf("frame must pass untouched: verdict=%d stats=%+v", verdict, stats)
				}
				return
			}
			if verdict != want.verdict || !want.moved(stats) {
				t.Fatalf("verdict=%d (want %d), stats=%+v", verdict, want.verdict, stats)
			}
		})
	}
}

// FuzzSniffFrame feeds arbitrary frames to the peek-based inspector and
// the decode-based oracle: neither may panic, and they must agree on the
// verdict, every counter and every emitted byte.
func FuzzSniffFrame(f *testing.F) {
	for _, frame := range sniffFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		checkSniffAgrees(t, frame)
	})
}
