package packet

import "github.com/pcelisp/pcelisp/internal/netaddr"

// EncapTemplateLen is the serialized outer-header size of a LISP data
// encapsulation: IPv4 / UDP / LISP.
const EncapTemplateLen = IPv4HeaderLen + UDPHeaderLen + LISPHeaderLen

// EncapTemplate is a pre-serialized LISP outer header for one (source
// RLOC, destination RLOC, port pair) tunnel. Building the template pays
// the full layer-by-layer serialization once; Encap then copies the fixed
// 36 bytes and patches only what varies per packet — the two length
// fields, the two checksums and the nonce — instead of re-serializing
// four layers. The produced bytes are bit-identical to
//
//	Serialize(&IPv4{TTL: DefaultTTL, Protocol: IPProtocolUDP, SrcIP: src, DstIP: dst},
//	          &UDP{SrcPort: sport, DstPort: dport},   // with checksum
//	          &LISP{NonceP: true, Nonce: nonce},
//	          Payload(inner))
//
// which the differential tests assert; any change to those layers'
// serialization must be mirrored here.
type EncapTemplate struct {
	hdr [EncapTemplateLen]byte
	// ipSum is the ones-complement sum of the 20-byte IPv4 header with
	// Length and Checksum zero; finishing it with the actual total length
	// yields the header checksum.
	ipSum uint32
	// udpSum is the ones-complement sum of the UDP pseudo-header (minus
	// the length, counted twice per packet), the port words and the LISP
	// flags word; adding the lengths, the nonce words and the inner bytes
	// yields the datagram checksum.
	udpSum uint32
}

// NewEncapTemplate builds the outer-header template for a tunnel.
func NewEncapTemplate(src, dst netaddr.Addr, sport, dport uint16) *EncapTemplate {
	t := &EncapTemplate{}
	b := t.hdr[:]
	// IPv4: version 4, IHL 5, TOS/ID/flags/frag zero, default TTL, UDP.
	b[0] = 4<<4 | 5
	b[8] = DefaultTTL
	b[9] = byte(IPProtocolUDP)
	src.PutBytes(b[12:16])
	dst.PutBytes(b[16:20])
	// UDP ports; lengths and checksums are patched per packet.
	b[20], b[21] = byte(sport>>8), byte(sport)
	b[22], b[23] = byte(dport>>8), byte(dport)
	// LISP: N bit set, nonce patched per packet, word2 zero.
	b[28] = 0x80
	t.ipSum = sumBytes(0, b[:IPv4HeaderLen])
	// The LISP flags byte sits at an even offset in the UDP datagram, so
	// its word contribution is 0x8000 plus the nonce's high byte.
	t.udpSum = pseudoHeaderChecksum(src, dst, IPProtocolUDP, 0) +
		uint32(sport) + uint32(dport) + 0x8000
	return t
}

// Encap wraps inner in the templated outer header with the given 24-bit
// nonce. A frame's spare capacity belongs to the frame, as with append:
// when inner has EncapTemplateLen bytes of it, the inner bytes slide up
// and the header is written in front of them, in inner's own backing
// array, and nothing is allocated — inner's contents are undefined
// afterwards. Otherwise inner is left untouched and the packet is freshly
// allocated. The bytes produced are the same either way.
func (t *EncapTemplate) Encap(inner []byte, nonce uint32) []byte {
	nonce &= 0xffffff
	total := EncapTemplateLen + len(inner)
	var out []byte
	if cap(inner) >= total {
		out = inner[:total]
	} else {
		out = make([]byte, total)
	}
	copy(out[EncapTemplateLen:], inner) // a memmove: the in-place ranges overlap
	copy(out, t.hdr[:])
	// IPv4 total length and header checksum.
	out[2], out[3] = byte(total>>8), byte(total)
	ipck := finishChecksum(t.ipSum + uint32(total))
	out[10], out[11] = byte(ipck>>8), byte(ipck)
	// UDP length (header + LISP + inner) and LISP nonce.
	udpLen := total - IPv4HeaderLen
	out[24], out[25] = byte(udpLen>>8), byte(udpLen)
	out[29], out[30], out[31] = byte(nonce>>16), byte(nonce>>8), byte(nonce)
	// UDP checksum: the length appears twice (pseudo-header and header
	// field); the LISP header is even-aligned, so the inner bytes sum
	// composes additively.
	sum := t.udpSum + 2*uint32(udpLen) + (nonce >> 16) + (nonce & 0xffff)
	ck := finishChecksum(sumBytes(sum, out[EncapTemplateLen:]))
	if ck == 0 {
		ck = 0xffff // 0 is reserved for "no checksum"
	}
	out[26], out[27] = byte(ck>>8), byte(ck)
	return out
}
