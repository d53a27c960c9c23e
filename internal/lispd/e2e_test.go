package lispd

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// testConfig builds the canonical two-domain test config for domain idx
// (0 or 1), mirroring the topo address plan: domain d owns
// 100.(d+1).0.0/16, RLOCs 10.d.p.1, infra 172.16.d.{1,2}.
func testConfig(idx int) *Config {
	other := 1 - idx
	return &Config{
		Name:     fmt.Sprintf("d%d", idx),
		Listen:   "127.0.0.1:0",
		Seed:     int64(idx) + 1,
		EIDSpace: "100.0.0.0/8",
		Site: &SiteConfig{
			EIDPrefix: fmt.Sprintf("100.%d.0.0/16", idx+1),
			Locators: []LocatorConfig{
				{Name: fmt.Sprintf("P%d.0", idx), RLOC: fmt.Sprintf("10.%d.0.1", idx), BaseLatencyMillis: 12},
				{Name: fmt.Sprintf("P%d.1", idx), RLOC: fmt.Sprintf("10.%d.1.1", idx), BaseLatencyMillis: 25},
			},
		},
		PCE: &PCEConfig{
			Addr:    fmt.Sprintf("172.16.%d.1", idx),
			DNSAddr: fmt.Sprintf("172.16.%d.2", idx),
		},
		Keys:      []KeyConfig{{ID: "plane", Secret: "pce-plane-key"}},
		AuthKeyID: "plane",
		DNS: &DNSConfig{
			Zone: fmt.Sprintf("d%d.example", idx),
			Records: []RecordConfig{
				{Name: fmt.Sprintf("h0.d%d.example", idx), Addr: fmt.Sprintf("100.%d.1.1", idx+1)},
			},
			Views: []ViewConfig{
				{Name: "internal", CIDRs: []string{fmt.Sprintf("100.%d.0.0/16", idx+1)}, Recursion: true},
				{Name: "infra", CIDRs: []string{"172.16.0.0/12"}, Recursion: false},
			},
			Forward: []ForwardConfig{
				{Zone: fmt.Sprintf("d%d.example", other), Server: fmt.Sprintf("172.16.%d.2", other)},
			},
		},
	}
}

// TestLoad parses the reference config from disk, pinning the JSON
// field names the README documents.
func TestLoad(t *testing.T) {
	cfg, err := Load("testdata/site-a.json")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "site-a" || cfg.Site == nil || cfg.PCE == nil || cfg.DNS == nil {
		t.Fatalf("roles missing after load: %+v", cfg)
	}
	if len(cfg.Site.Locators) != 2 || cfg.Site.Locators[1].BaseLatencyMillis != 25 {
		t.Fatalf("locators = %+v", cfg.Site.Locators)
	}
	if cfg.Defense.FetchQueueCap != 64 || cfg.Defense.OverclaimFloor != 16 {
		t.Fatalf("defense = %+v", cfg.Defense)
	}
	if len(cfg.DNS.Views) != 2 || cfg.DNS.Views[0].Hosts["intranet.d0.example"] != "100.1.0.10" {
		t.Fatalf("views = %+v", cfg.DNS.Views)
	}
	if string(cfg.AuthKey()) != "pce-plane-key" {
		t.Fatalf("auth key = %q", cfg.AuthKey())
	}
	if cfg.Admin != "127.0.0.1:0" {
		t.Fatalf("admin = %q", cfg.Admin)
	}
	if d, err := New(cfg); err != nil {
		t.Fatalf("daemon refuses the reference config: %v", err)
	} else {
		d.Close()
	}
}

// configCases is the TestConfigValidation table; FuzzConfig seeds its
// corpus from the same mutations.
var configCases = []struct {
	name   string
	mutate func(*Config)
	want   string // substring of the error ("" = valid)
}{
	{"valid", func(c *Config) {}, ""},
	{"zero locators", func(c *Config) { c.Site.Locators = nil }, "zero locators"},
	{"unknown key id", func(c *Config) { c.AuthKeyID = "nope" }, "references no declared key"},
	{"peer route swallowing the site prefix", func(c *Config) {
		c.Peers = []PeerConfig{{Prefix: "100.0.0.0/12", Endpoint: "127.0.0.1:4000"}}
	}, "overlaps the site's own EID prefix"},
	{"interior host route accepted", func(c *Config) {
		c.Peers = []PeerConfig{{Prefix: "100.1.2.0/24", Endpoint: "127.0.0.1:4000"}}
	}, ""},
	{"whole-site interior route accepted", func(c *Config) {
		c.Peers = []PeerConfig{{Prefix: "100.1.0.0/16", Endpoint: "127.0.0.1:4000"}}
	}, ""},
	{"site outside eid space", func(c *Config) { c.Site.EIDPrefix = "99.1.0.0/16" }, "outside eidSpace"},
	{"locator inside eid space", func(c *Config) { c.Site.Locators[0].RLOC = "100.3.0.1" }, "inside the EID space"},
	{"no roles", func(c *Config) { c.Site = nil; c.PCE = nil }, "at least one role"},
	{"bad policy", func(c *Config) { c.PCE.Policy = "clairvoyant" }, "unknown"},
	{"bad view cidr", func(c *Config) { c.DNS.Views[0].CIDRs = []string{"not-a-prefix"} }, "cidr"},
	{"view without cidrs", func(c *Config) { c.DNS.Views[0].CIDRs = nil }, "no cidrs"},
	{"bad miss policy", func(c *Config) { c.Site.MissPolicy = "hope" }, "missPolicy"},
	{"duplicate key id", func(c *Config) {
		c.Keys = append(c.Keys, KeyConfig{ID: "plane", Secret: "again"})
	}, "duplicate key id"},
}

func TestConfigValidation(t *testing.T) {
	for _, tc := range configCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(0)
			tc.mutate(cfg)
			err := cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// endHost is a test harness playing one end host: a real UDP socket that
// exchanges full IPv4/UDP frames with a daemon, the way a site-interior
// network would.
type endHost struct {
	t    *testing.T
	conn *net.UDPConn
	rx   chan []byte
}

func newEndHost(t *testing.T) *endHost {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	h := &endHost{t: t, conn: conn, rx: make(chan []byte, 64)}
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				close(h.rx)
				return
			}
			frame := make([]byte, n)
			copy(frame, buf[:n])
			h.rx <- frame
		}
	}()
	t.Cleanup(func() { conn.Close() })
	return h
}

func (h *endHost) addr() *net.UDPAddr { return h.conn.LocalAddr().(*net.UDPAddr) }

func (h *endHost) send(to *net.UDPAddr, frame []byte) {
	if _, err := h.conn.WriteToUDP(frame, to); err != nil {
		h.t.Error(err)
	}
}

func (h *endHost) recv(timeout time.Duration) []byte {
	select {
	case frame, ok := <-h.rx:
		if !ok {
			h.t.Fatal("end host socket closed")
		}
		return frame
	case <-time.After(timeout):
		h.t.Fatal("timed out waiting for a frame")
	}
	return nil
}

// startPair boots the two test daemons and wires their peer routes.
func startPair(t *testing.T) (*Daemon, *Daemon) {
	t.Helper()
	return startPairWith(t, testConfig(0), testConfig(1))
}

// startPairWith is startPair over (possibly adjusted) domain 0 and 1
// configs.
func startPairWith(t *testing.T, cfgA, cfgB *Config) (*Daemon, *Daemon) {
	t.Helper()
	da, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(da.Close)
	db, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)

	// Cross-wire: each daemon reaches the other's EIDs, RLOCs and infra.
	da.SetPeer(netaddr.MustParsePrefix("100.2.0.0/16"), db.RealAddr())
	da.SetPeer(netaddr.MustParsePrefix("10.1.0.0/16"), db.RealAddr())
	da.SetPeer(netaddr.MustParsePrefix("172.16.1.0/24"), db.RealAddr())
	db.SetPeer(netaddr.MustParsePrefix("100.1.0.0/16"), da.RealAddr())
	db.SetPeer(netaddr.MustParsePrefix("10.0.0.0/16"), da.RealAddr())
	db.SetPeer(netaddr.MustParsePrefix("172.16.0.0/24"), da.RealAddr())

	da.Start()
	db.Start()
	return da, db
}

// TestLoopbackE2E runs the paper's full sequence across two real daemons
// on loopback: a client DNS query triggers the PCED/PCES exchange, the
// MappingPush installs a per-flow tuple at the ITR, and a data packet is
// encapsulated — bit-exactly per the packet codec — tunneled, decapped
// and delivered.
func TestLoopbackE2E(t *testing.T) {
	da, db := startPair(t)

	client := newEndHost(t) // h0.d0 = 100.1.1.1, attached to daemon A
	sink := newEndHost(t)   // h0.d1 = 100.2.1.1, attached to daemon B
	tap := newEndHost(t)    // the "wire" between A and B's RLOC networks

	es := netaddr.MustParseAddr("100.1.1.1")
	ed := netaddr.MustParseAddr("100.2.1.1")
	dnsA := netaddr.MustParseAddr("172.16.0.2")

	da.SetPeer(netaddr.HostPrefix(es), client.addr())
	db.SetPeer(netaddr.HostPrefix(ed), sink.addr())
	// Divert A's routes toward B's RLOCs through the tap so the test can
	// inspect the encapsulated outer frames in flight.
	da.SetPeer(netaddr.MustParsePrefix("10.1.0.0/16"), tap.addr())

	// Step 1-7: the client resolves the remote host's name.
	q := &packet.DNS{
		ID: 41, RD: true,
		Questions: []packet.DNSQuestion{{Name: "h0.d1.example", Type: packet.DNSTypeA, Class: packet.DNSClassIN}},
	}
	client.send(da.RealAddr(), runtime.EncodeUDP(es, dnsA, 5353, packet.PortDNS, q))

	reply := client.recv(5 * time.Second)
	rp := packet.NewPacket(reply, packet.LayerTypeIPv4, packet.Default)
	dnsl := rp.Layer(packet.LayerTypeDNS)
	if dnsl == nil {
		t.Fatalf("client got a non-DNS frame: % x", reply)
	}
	ans := dnsl.(*packet.DNS)
	if ans.ID != 41 || !ans.QR {
		t.Fatalf("bad reply: %+v", ans)
	}
	got, ok := ans.FirstA()
	if !ok || got != ed {
		t.Fatalf("answer = %v (ok=%v), want %v", got, ok, ed)
	}

	// The MappingPush must have installed the flow tuple at A's ITR.
	type flowRow struct {
		src, dst, srcRLOC, dstRLOC netaddr.Addr
	}
	var flows []flowRow
	{
		done := make(chan struct{})
		da.Loop().Post(func() {
			da.XTR().Flows.Walk(func(k lisp.FlowKey, e lisp.FlowEntry) {
				flows = append(flows, flowRow{src: k.Src, dst: k.Dst, srcRLOC: e.SrcRLOC, dstRLOC: e.DstRLOC})
			})
			close(done)
		})
		<-done
	}
	if len(flows) != 1 {
		t.Fatalf("ITR flow table has %d entries, want 1: %+v", len(flows), flows)
	}
	f := flows[0]
	if f.src != es || f.dst != ed {
		t.Fatalf("flow key = %v->%v, want %v->%v", f.src, f.dst, es, ed)
	}
	aRLOCs := map[netaddr.Addr]bool{netaddr.MustParseAddr("10.0.0.1"): true, netaddr.MustParseAddr("10.0.1.1"): true}
	bRLOCs := map[netaddr.Addr]bool{netaddr.MustParseAddr("10.1.0.1"): true, netaddr.MustParseAddr("10.1.1.1"): true}
	if !aRLOCs[f.srcRLOC] || !bRLOCs[f.dstRLOC] {
		t.Fatalf("flow RLOCs %v->%v not drawn from the sites' locator sets", f.srcRLOC, f.dstRLOC)
	}

	// Data plane: the client sends an inner packet; A encapsulates it.
	inner := runtime.EncodeUDP(es, ed, 7777, 8888, packet.Payload([]byte("across the tunnel")))
	client.send(da.RealAddr(), inner)

	outer := tap.recv(5 * time.Second)
	op := packet.NewPacket(outer, packet.LayerTypeIPv4, packet.Default)
	oip := op.Layer(packet.LayerTypeIPv4).(*packet.IPv4)
	lispL := op.Layer(packet.LayerTypeLISP)
	if lispL == nil {
		t.Fatalf("tapped frame is not LISP-encapsulated: % x", outer)
	}
	nonce := lispL.(*packet.LISP).Nonce
	if oip.SrcIP != f.srcRLOC || oip.DstIP != f.dstRLOC {
		t.Fatalf("outer header %v->%v, want %v->%v", oip.SrcIP, oip.DstIP, f.srcRLOC, f.dstRLOC)
	}

	// Bit-exactness: the encap fast path must emit exactly the bytes the
	// layer-by-layer codec serializes (the EncapTemplate contract).
	oipGold := &packet.IPv4{TTL: packet.DefaultTTL, Protocol: packet.IPProtocolUDP, SrcIP: f.srcRLOC, DstIP: f.dstRLOC}
	udpGold := &packet.UDP{SrcPort: packet.PortLISPData, DstPort: packet.PortLISPData}
	udpGold.SetNetworkLayerForChecksum(oipGold)
	golden := packet.Serialize(oipGold, udpGold,
		&packet.LISP{NonceP: true, Nonce: nonce}, packet.Payload(inner))
	if !bytes.Equal(outer, golden) {
		t.Fatalf("encap output is not bit-identical to the codec golden:\n got % x\nwant % x", outer, golden)
	}

	// Forward the tapped frame on to B, which must decap and deliver the
	// inner frame bit-identically.
	tap.send(db.RealAddr(), outer)
	delivered := sink.recv(5 * time.Second)
	if !bytes.Equal(delivered, inner) {
		t.Fatalf("decapped inner differs from the original:\n got % x\nwant % x", delivered, inner)
	}

	// The control message ledger saw the exchange on both sides.
	var aStats, bStats struct{ pushes, encapSent uint64 }
	done := make(chan struct{}, 2)
	da.Loop().Post(func() { aStats.pushes = da.PCE().Stats().MappingPushes; done <- struct{}{} })
	db.Loop().Post(func() { bStats.encapSent = db.PCE().Stats().EncapRepliesSent; done <- struct{}{} })
	<-done
	<-done
	if aStats.pushes == 0 {
		t.Fatal("A's PCE pushed no mappings")
	}
	if bStats.encapSent == 0 {
		t.Fatal("B's PCED encapsulated no replies")
	}
}

// TestReloadInFlight proves a SIGHUP-style reload swaps the DNS config
// atomically without dropping an in-flight resolution: a query forwarded
// before the reload still reaches its client after it, and new queries
// see the new records.
func TestReloadInFlight(t *testing.T) {
	cfgA := testConfig(0)
	// Point d0's forwarder at a black hole so the resolution stays
	// in flight until the test releases the answer.
	da, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(da.Close)

	auth := newEndHost(t) // plays d1's authoritative server at 172.16.1.2
	client := newEndHost(t)
	es := netaddr.MustParseAddr("100.1.1.1")
	dnsA := netaddr.MustParseAddr("172.16.0.2")
	authAddr := netaddr.MustParseAddr("172.16.1.2")

	da.SetPeer(netaddr.HostPrefix(es), client.addr())
	da.SetPeer(netaddr.MustParsePrefix("172.16.1.0/24"), auth.addr())
	da.Start()

	// Query leaves for the (slow) remote auth server.
	q := &packet.DNS{
		ID: 99, RD: true,
		Questions: []packet.DNSQuestion{{Name: "h0.d1.example", Type: packet.DNSTypeA, Class: packet.DNSClassIN}},
	}
	client.send(da.RealAddr(), runtime.EncodeUDP(es, dnsA, 5353, packet.PortDNS, q))
	fwd := auth.recv(5 * time.Second) // the forwarded query, held in flight

	// Reload with changed records and an extra view host override.
	next := testConfig(0)
	next.DNS.Records = append(next.DNS.Records, RecordConfig{Name: "new.d0.example", Addr: "100.1.9.9"})
	if err := da.Reload(next); err != nil {
		t.Fatalf("reload: %v", err)
	}

	// Structural changes must be rejected whole.
	bad := testConfig(0)
	bad.Site.EIDPrefix = "100.3.0.0/16"
	if err := da.Reload(bad); err == nil {
		t.Fatal("reload accepted a site prefix change")
	}

	// Release the held answer: the pre-reload resolution completes.
	fp := packet.NewPacket(fwd, packet.LayerTypeIPv4, packet.Default)
	fq := fp.Layer(packet.LayerTypeDNS).(*packet.DNS)
	if fq.ID != 99 {
		t.Fatalf("forwarded query ID = %d", fq.ID)
	}
	ed := netaddr.MustParseAddr("100.2.1.1")
	ansMsg := &packet.DNS{
		ID: fq.ID, QR: true, AA: true, RD: fq.RD, Questions: fq.Questions,
		Answers: []packet.DNSResourceRecord{{
			Name: "h0.d1.example", Type: packet.DNSTypeA, Class: packet.DNSClassIN, TTL: 300, IP: ed,
		}},
	}
	auth.send(da.RealAddr(), runtime.EncodeUDP(authAddr, dnsA, packet.PortDNS, packet.PortDNS, ansMsg))

	reply := client.recv(5 * time.Second)
	rp := packet.NewPacket(reply, packet.LayerTypeIPv4, packet.Default)
	ans := rp.Layer(packet.LayerTypeDNS).(*packet.DNS)
	if got, ok := ans.FirstA(); !ok || got != ed {
		t.Fatalf("in-flight resolution lost across reload: %+v", ans)
	}

	// And the new record is live.
	q2 := &packet.DNS{
		ID: 100, RD: true,
		Questions: []packet.DNSQuestion{{Name: "new.d0.example", Type: packet.DNSTypeA, Class: packet.DNSClassIN}},
	}
	client.send(da.RealAddr(), runtime.EncodeUDP(es, dnsA, 5353, packet.PortDNS, q2))
	reply2 := client.recv(5 * time.Second)
	rp2 := packet.NewPacket(reply2, packet.LayerTypeIPv4, packet.Default)
	ans2 := rp2.Layer(packet.LayerTypeDNS).(*packet.DNS)
	if got, ok := ans2.FirstA(); !ok || got != netaddr.MustParseAddr("100.1.9.9") {
		t.Fatalf("reloaded record not served: %+v", ans2)
	}
}
