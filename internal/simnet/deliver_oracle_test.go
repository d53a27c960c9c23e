package simnet

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
)

// oracleDeliverLocal is the decode-based local dispatch deliverLocal ran
// before it peeked the UDP header: what becomes of a locally addressed
// frame on a node with the given raw and decoded UDP binds and no local
// handler, and the header a decoded-bind handler is handed.
func oracleDeliverLocal(data []byte, raw, bound map[uint16]bool) (string, *packet.UDP) {
	p := packet.NewPacket(data, packet.LayerTypeIPv4, packet.Default)
	ipl := p.Layer(packet.LayerTypeIPv4)
	if ipl == nil {
		return "malformed", nil
	}
	if ipl.(*packet.IPv4).Protocol == packet.IPProtocolUDP {
		if l := p.Layer(packet.LayerTypeUDP); l != nil {
			udp := l.(*packet.UDP)
			if raw[udp.DstPort] {
				return "raw", udp
			}
			if bound[udp.DstPort] {
				return "udp", udp
			}
		}
	}
	return "unhandled", nil
}

// TestDeliveredUDPHeaderMatchesDecoder holds the peeked delivery path to
// the decoder it replaced. For generated datagrams — options-bearing
// headers, link padding behind the IP length and a UDP length short of
// the IP payload included — and for every truncation and every
// single-bit header mutation of them that still addresses the node, the
// frame must end where the decode-based dispatch puts it (raw bind,
// decoded bind, Unhandled or Malformed, counted identically), the
// *packet.UDP a ListenUDP handler receives must equal the decoder's UDP
// layer field for field, and d.IPv4() must still work inside the handler.
func TestDeliveredUDPHeaderMatchesDecoder(t *testing.T) {
	s := New(1)
	n := s.NewNode("n")
	self, peer := netaddr.MustParseAddr("192.0.2.2"), netaddr.MustParseAddr("192.0.2.1")
	n.AddAddr(self)
	raw, bound := map[uint16]bool{7001: true}, map[uint16]bool{7000: true}

	var what string
	var hdr packet.UDP
	var handlerIP *packet.IPv4
	n.ListenUDP(7000, func(d *Delivery, udp *packet.UDP) {
		what, hdr, handlerIP = "udp", *udp, d.IPv4()
	})
	var rawPayload []byte
	n.ListenUDPRaw(7001, func(_ *Delivery, payload []byte) { what, rawPayload = "raw", payload })

	check := func(name string, frame []byte) {
		t.Helper()
		if dst, ok := packet.PeekIPv4Dst(frame); !ok || dst != self {
			return // never reaches local delivery; that path is not under test
		}
		want, wantUDP := oracleDeliverLocal(frame, raw, bound)
		what, handlerIP, rawPayload = "", nil, nil
		before := n.Stats
		n.receive(bytes.Clone(frame), nil)
		after := n.Stats
		if what == "" {
			switch {
			case after.Malformed == before.Malformed+1 && after.Unhandled == before.Unhandled:
				what = "malformed"
			case after.Unhandled == before.Unhandled+1 && after.Malformed == before.Malformed:
				what = "unhandled"
			}
		} else if after.Malformed != before.Malformed || after.Unhandled != before.Unhandled {
			t.Fatalf("%s: handled by %s yet counted: %+v -> %+v", name, what, before, after)
		}
		if what != want || after.DeliveredLocal != before.DeliveredLocal+1 {
			t.Fatalf("%s: delivery = %q, the decoder says %q (stats %+v -> %+v)\nframe % x", name, what, want, before, after, frame)
		}
		switch want {
		case "raw":
			if !bytes.Equal(rawPayload, wantUDP.Payload) {
				t.Fatalf("%s: raw payload % x, the decoder says % x", name, rawPayload, wantUDP.Payload)
			}
		case "udp":
			if hdr.SrcPort != wantUDP.SrcPort || hdr.DstPort != wantUDP.DstPort ||
				hdr.Length != wantUDP.Length || hdr.Checksum != wantUDP.Checksum ||
				!bytes.Equal(hdr.Contents, wantUDP.Contents) || !bytes.Equal(hdr.Payload, wantUDP.Payload) ||
				!bytes.Equal(hdr.LayerPayload(), wantUDP.LayerPayload()) {
				t.Fatalf("%s: handler got %+v, the decoder says %+v", name, hdr, *wantUDP)
			}
			if src, _ := packet.PeekIPv4Src(frame); handlerIP == nil || handlerIP.SrcIP != src || handlerIP.DstIP != self {
				t.Fatalf("%s: d.IPv4() inside the handler = %+v", name, handlerIP)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	var base [][]byte
	for _, port := range []uint16{7000, 7001, 9} {
		for _, optLen := range []int{0, 4, 40} {
			payload := make(packet.Payload, rng.Intn(64))
			rng.Read(payload)
			ip := &packet.IPv4{TTL: packet.DefaultTTL, Protocol: packet.IPProtocolUDP, SrcIP: peer, DstIP: self, Options: make([]byte, optLen)}
			udp := &packet.UDP{SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: port}
			udp.SetNetworkLayerForChecksum(ip)
			frame := packet.Serialize(ip, udp, &payload)
			base = append(base, frame)
			// Link padding behind the IP total length.
			base = append(base, append(bytes.Clone(frame), 0xee, 0xee, 0xee))
			// A UDP length short of the IP payload.
			if len(payload) > 2 {
				short := bytes.Clone(frame)
				l := packet.UDPHeaderLen + len(payload) - 2
				short[packet.IPv4HeaderLen+optLen+4], short[packet.IPv4HeaderLen+optLen+5] = byte(l>>8), byte(l)
				base = append(base, short)
			}
		}
	}
	tcp := packet.Serialize(
		&packet.IPv4{TTL: packet.DefaultTTL, Protocol: packet.IPProtocolTCP, SrcIP: peer, DstIP: self},
		&packet.TCP{SrcPort: 1, DstPort: 7000, SYN: true})
	base = append(base, tcp)

	valid := 0
	for _, frame := range base {
		if w, _ := oracleDeliverLocal(frame, raw, bound); w == "udp" {
			valid++
		}
		check("base", frame)
		for cut := packet.IPv4HeaderLen; cut < len(frame); cut++ {
			check("truncated", frame[:cut])
		}
		hdrLen := int(frame[0]&0x0f)*4 + packet.UDPHeaderLen
		for bit := 0; bit < 8*hdrLen && bit < 8*len(frame); bit++ {
			mut := bytes.Clone(frame)
			mut[bit/8] ^= 1 << (bit % 8)
			check("mutated", mut)
		}
	}
	if valid < 6 {
		t.Fatalf("only %d base frames reached the decoded bind: the generator is broken", valid)
	}
	if n.Stats.Malformed == 0 || n.Stats.Unhandled == 0 {
		t.Fatalf("the corpus never exercised Malformed (%d) or Unhandled (%d)", n.Stats.Malformed, n.Stats.Unhandled)
	}
}
