package packet

import (
	"fmt"

	"github.com/pcelisp/pcelisp/internal/netaddr"
)

// IPProtocol is the IPv4 protocol field.
type IPProtocol uint8

// Protocol numbers used in this codebase.
const (
	// IPProtocolTCP is protocol 6.
	IPProtocolTCP IPProtocol = 6
	// IPProtocolUDP is protocol 17.
	IPProtocolUDP IPProtocol = 17
	// IPProtocolIPv4 is IP-in-IP (protocol 4); LISP does not use it — LISP
	// tunnels are IP/UDP — but the simulator's raw tunnel tests do.
	IPProtocolIPv4 IPProtocol = 4
)

// String names the protocol.
func (p IPProtocol) String() string {
	switch p {
	case IPProtocolTCP:
		return "TCP"
	case IPProtocolUDP:
		return "UDP"
	case IPProtocolIPv4:
		return "IPv4"
	default:
		return fmt.Sprintf("IPProtocol(%d)", uint8(p))
	}
}

// nextDecoder returns the decoder for this protocol's payload.
func (p IPProtocol) nextDecoder() Decoder {
	switch p {
	case IPProtocolTCP:
		return LayerTypeTCP
	case IPProtocolUDP:
		return LayerTypeUDP
	case IPProtocolIPv4:
		return LayerTypeIPv4
	default:
		return LayerTypePayload
	}
}

// IPv4 header field offsets and flags.
const (
	// IPv4HeaderLen is the length of an option-less IPv4 header.
	IPv4HeaderLen = 20
	// IPv4DontFragment is the DF flag bit.
	IPv4DontFragment = 0x2
	// IPv4MoreFragments is the MF flag bit.
	IPv4MoreFragments = 0x1
	// DefaultTTL is the initial TTL stamped on generated packets.
	DefaultTTL = 64
)

// IPv4 is the Internet Protocol version 4 header.
type IPv4 struct {
	BaseLayer
	Version    uint8
	IHL        uint8 // header length in 32-bit words
	TOS        uint8
	Length     uint16 // total length including header
	ID         uint16
	Flags      uint8  // 3 bits: evil/DF/MF
	FragOffset uint16 // 13 bits
	TTL        uint8
	Protocol   IPProtocol
	Checksum   uint16
	SrcIP      netaddr.Addr
	DstIP      netaddr.Addr
	Options    []byte
}

// LayerType returns LayerTypeIPv4.
func (*IPv4) LayerType() LayerType { return LayerTypeIPv4 }

// NetworkFlow returns the src->dst address flow.
func (ip *IPv4) NetworkFlow() Flow {
	return NewFlow(NewIPv4Endpoint(ip.SrcIP), NewIPv4Endpoint(ip.DstIP))
}

func decodeIPv4(data []byte, p PacketBuilder) error {
	if len(data) < IPv4HeaderLen {
		return fmt.Errorf("IPv4: %d bytes is too short for a header", len(data))
	}
	ip := &IPv4{
		Version:    data[0] >> 4,
		IHL:        data[0] & 0x0f,
		TOS:        data[1],
		Length:     uint16(data[2])<<8 | uint16(data[3]),
		ID:         uint16(data[4])<<8 | uint16(data[5]),
		Flags:      data[6] >> 5,
		FragOffset: (uint16(data[6]&0x1f)<<8 | uint16(data[7])),
		TTL:        data[8],
		Protocol:   IPProtocol(data[9]),
		Checksum:   uint16(data[10])<<8 | uint16(data[11]),
		SrcIP:      netaddr.AddrFromBytes(data[12:16]),
		DstIP:      netaddr.AddrFromBytes(data[16:20]),
	}
	if ip.Version != 4 {
		return fmt.Errorf("IPv4: bad version %d", ip.Version)
	}
	hl := int(ip.IHL) * 4
	if hl < IPv4HeaderLen || hl > len(data) {
		return fmt.Errorf("IPv4: bad header length %d (packet %d)", hl, len(data))
	}
	if int(ip.Length) < hl || int(ip.Length) > len(data) {
		return fmt.Errorf("IPv4: bad total length %d (packet %d)", ip.Length, len(data))
	}
	if hl > IPv4HeaderLen {
		ip.Options = data[IPv4HeaderLen:hl]
	}
	ip.Contents = data[:hl]
	ip.Payload = data[hl:ip.Length]
	p.AddLayer(ip)
	p.SetNetworkLayer(ip)
	return p.NextDecoder(ip.Protocol.nextDecoder())
}

// SerializeTo implements SerializableLayer.
func (ip *IPv4) SerializeTo(b SerializeBuffer, opts SerializeOptions) error {
	if len(ip.Options)%4 != 0 {
		return fmt.Errorf("IPv4: options length %d is not a multiple of 4", len(ip.Options))
	}
	hl := IPv4HeaderLen + len(ip.Options)
	payloadLen := len(b.Bytes())
	bytes, err := b.PrependBytes(hl)
	if err != nil {
		return err
	}
	if opts.FixLengths {
		ip.Version = 4
		ip.IHL = uint8(hl / 4)
		ip.Length = uint16(hl + payloadLen)
	}
	bytes[0] = ip.Version<<4 | ip.IHL
	bytes[1] = ip.TOS
	bytes[2], bytes[3] = byte(ip.Length>>8), byte(ip.Length)
	bytes[4], bytes[5] = byte(ip.ID>>8), byte(ip.ID)
	bytes[6] = ip.Flags<<5 | byte(ip.FragOffset>>8)
	bytes[7] = byte(ip.FragOffset)
	bytes[8] = ip.TTL
	bytes[9] = byte(ip.Protocol)
	bytes[10], bytes[11] = 0, 0
	ip.SrcIP.PutBytes(bytes[12:16])
	ip.DstIP.PutBytes(bytes[16:20])
	copy(bytes[IPv4HeaderLen:], ip.Options)
	if opts.ComputeChecksums {
		ip.Checksum = Checksum(bytes[:hl])
	}
	bytes[10], bytes[11] = byte(ip.Checksum>>8), byte(ip.Checksum)
	return nil
}

// VerifyIPv4Checksum reports whether the header checksum of the IPv4
// packet at the start of data is correct.
func VerifyIPv4Checksum(data []byte) bool {
	if len(data) < IPv4HeaderLen {
		return false
	}
	hl := int(data[0]&0x0f) * 4
	if hl < IPv4HeaderLen || hl > len(data) {
		return false
	}
	return Checksum(data[:hl]) == 0
}

// PeekIPv4Dst extracts the destination address from raw IPv4 packet bytes
// without a full decode. Forwarding nodes call this on every hop.
func PeekIPv4Dst(data []byte) (netaddr.Addr, bool) {
	if len(data) < IPv4HeaderLen || data[0]>>4 != 4 {
		return 0, false
	}
	return netaddr.AddrFromBytes(data[16:20]), true
}

// PeekIPv4Src extracts the source address from raw IPv4 packet bytes.
func PeekIPv4Src(data []byte) (netaddr.Addr, bool) {
	if len(data) < IPv4HeaderLen || data[0]>>4 != 4 {
		return 0, false
	}
	return netaddr.AddrFromBytes(data[12:16]), true
}

// peekUDPDatagram returns the UDP datagram (header and payload, cut to its
// own length field) inside raw IPv4/UDP packet bytes, applying exactly
// the validation the IPv4 and UDP decoders would, or nil when the bytes
// are not a well-formed IPv4/UDP datagram.
func peekUDPDatagram(data []byte) []byte {
	if len(data) < IPv4HeaderLen || data[0]>>4 != 4 {
		return nil
	}
	hl := int(data[0]&0x0f) * 4
	totalLen := int(data[2])<<8 | int(data[3])
	if hl < IPv4HeaderLen || totalLen < hl || totalLen > len(data) {
		return nil
	}
	if IPProtocol(data[9]) != IPProtocolUDP {
		return nil
	}
	dgram := data[hl:totalLen]
	if len(dgram) < UDPHeaderLen {
		return nil
	}
	udpLen := int(dgram[4])<<8 | int(dgram[5])
	if udpLen < UDPHeaderLen || udpLen > len(dgram) {
		return nil
	}
	return dgram[:udpLen]
}

// PeekUDPPayload extracts the UDP ports and payload from raw IPv4/UDP
// packet bytes without building layer structs. ok is false when the bytes
// are not a well-formed IPv4/UDP datagram; callers must then fall back to
// the decoding path so malformed traffic is accounted identically.
func PeekUDPPayload(data []byte) (src, dst uint16, payload []byte, ok bool) {
	dgram := peekUDPDatagram(data)
	if dgram == nil {
		return 0, 0, nil, false
	}
	return uint16(dgram[0])<<8 | uint16(dgram[1]),
		uint16(dgram[2])<<8 | uint16(dgram[3]),
		dgram[UDPHeaderLen:], true
}

// PeekUDP is PeekUDPPayload filling the whole header view decodeUDP
// builds — ports, length, checksum, Contents, Payload — into a UDP the
// caller owns, so nothing is allocated. On false u is left alone.
func PeekUDP(data []byte, u *UDP) bool {
	dgram := peekUDPDatagram(data)
	if dgram == nil {
		return false
	}
	*u = UDP{
		BaseLayer: BaseLayer{Contents: dgram[:UDPHeaderLen], Payload: dgram[UDPHeaderLen:]},
		SrcPort:   uint16(dgram[0])<<8 | uint16(dgram[1]),
		DstPort:   uint16(dgram[2])<<8 | uint16(dgram[3]),
		Length:    uint16(len(dgram)),
		Checksum:  uint16(dgram[6])<<8 | uint16(dgram[7]),
	}
	return true
}

// PeekTCPSegment extracts the TCP flag byte and payload length from raw
// IPv4/TCP packet bytes without building layer structs, applying the same
// validation as the IPv4 and TCP decoders. End-host data hot paths use it
// to count established-flow segments without decoding; anything that
// fails validation (or needs the full header) goes through the decoder.
func PeekTCPSegment(data []byte) (flags byte, payloadLen int, ok bool) {
	if len(data) < IPv4HeaderLen || data[0]>>4 != 4 {
		return 0, 0, false
	}
	hl := int(data[0]&0x0f) * 4
	totalLen := int(data[2])<<8 | int(data[3])
	if hl < IPv4HeaderLen || totalLen < hl || totalLen > len(data) {
		return 0, 0, false
	}
	if IPProtocol(data[9]) != IPProtocolTCP {
		return 0, 0, false
	}
	seg := data[hl:totalLen]
	if len(seg) < TCPHeaderLen {
		return 0, 0, false
	}
	doff := int(seg[12]>>4) * 4
	if doff < TCPHeaderLen || doff > len(seg) {
		return 0, 0, false
	}
	return seg[13], len(seg) - doff, true
}

// PatchIPv4TTL decrements the TTL in place and fixes the checksum
// incrementally (RFC 1624). It reports false when the TTL is already 0.
func PatchIPv4TTL(data []byte) bool {
	if len(data) < IPv4HeaderLen {
		return false
	}
	if data[8] == 0 {
		return false
	}
	data[8]--
	// Incremental update: HC' = ~(~HC + ~m + m') over the 16-bit word
	// containing TTL (bytes 8-9).
	old := uint32(uint16(data[8]+1)<<8 | uint16(data[9]))
	new := uint32(uint16(data[8])<<8 | uint16(data[9]))
	hc := uint32(uint16(data[10])<<8 | uint16(data[11]))
	sum := (^hc)&0xffff + (^old)&0xffff + new
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	hc = ^sum & 0xffff
	data[10], data[11] = byte(hc>>8), byte(hc)
	return true
}

// PatchIPv4Dst rewrites the destination address of the IPv4 packet in
// place and recomputes the header checksum. The simulator uses it for
// head-end replication of multicast control messages.
func PatchIPv4Dst(data []byte, dst netaddr.Addr) bool {
	if len(data) < IPv4HeaderLen {
		return false
	}
	hl := int(data[0]&0x0f) * 4
	if hl < IPv4HeaderLen || hl > len(data) {
		return false
	}
	dst.PutBytes(data[16:20])
	data[10], data[11] = 0, 0
	ck := Checksum(data[:hl])
	data[10], data[11] = byte(ck>>8), byte(ck)
	return true
}
