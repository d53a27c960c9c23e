package packet

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/pcelisp/pcelisp/internal/netaddr"
)

// slowEncap is the reference path: full layer-by-layer serialization.
func slowEncap(src, dst netaddr.Addr, sport, dport uint16, nonce uint32, inner []byte) []byte {
	ip := &IPv4{TTL: DefaultTTL, Protocol: IPProtocolUDP, SrcIP: src, DstIP: dst}
	udp := &UDP{SrcPort: sport, DstPort: dport}
	udp.SetNetworkLayerForChecksum(ip)
	lisp := &LISP{NonceP: true, Nonce: nonce & 0xffffff}
	pay := Payload(inner)
	return Serialize(ip, udp, lisp, &pay)
}

// TestEncapTemplateMatchesSerialize pins the bit-identity contract: the
// patched template must reproduce the full serialization exactly, across
// odd/even inner lengths, nonce extremes and checksum corner cases.
func TestEncapTemplateMatchesSerialize(t *testing.T) {
	src := netaddr.MustParseAddr("10.0.0.1")
	dst := netaddr.MustParseAddr("12.0.0.1")
	inner := make([]byte, 1500)
	for i := range inner {
		inner[i] = byte(i*31 + 7)
	}
	tmpl := NewEncapTemplate(src, dst, PortLISPData, PortLISPData)
	for _, n := range []int{0, 1, 2, 19, 20, 63, 64, 512, 513, 1499, 1500} {
		for _, nonce := range []uint32{0, 1, 0x00ff00, 0xabcdef, 0xffffff} {
			want := slowEncap(src, dst, PortLISPData, PortLISPData, nonce, inner[:n])
			got := tmpl.Encap(inner[:n], nonce)
			if !bytes.Equal(got, want) {
				t.Fatalf("inner=%d nonce=%06x: template output diverges\n got %x\nwant %x", n, nonce, got, want)
			}
		}
	}
}

// TestEncapTemplateChecksumZeroRule exercises the UDP 0 -> 0xffff rule by
// brute-forcing an inner payload whose datagram checksum lands on zero.
func TestEncapTemplateChecksumZeroRule(t *testing.T) {
	src := netaddr.MustParseAddr("10.0.0.1")
	dst := netaddr.MustParseAddr("12.0.0.1")
	tmpl := NewEncapTemplate(src, dst, PortLISPData, PortLISPData)
	inner := make([]byte, 2)
	found := false
	for v := 0; v < 1<<16; v++ {
		inner[0], inner[1] = byte(v>>8), byte(v)
		got := tmpl.Encap(inner, 0x123456)
		if got[26] == 0xff && got[27] == 0xff {
			found = true
		}
		want := slowEncap(src, dst, PortLISPData, PortLISPData, 0x123456, inner)
		if !bytes.Equal(got, want) {
			t.Fatalf("inner=%x: template output diverges", inner)
		}
	}
	if !found {
		t.Fatal("no payload exercised the 0xffff checksum rule")
	}
}

// TestEncapTemplateSingleAlloc pins the fast path's allocation budget:
// one output buffer per packet, nothing else.
func TestEncapTemplateSingleAlloc(t *testing.T) {
	src := netaddr.MustParseAddr("10.0.0.1")
	dst := netaddr.MustParseAddr("12.0.0.1")
	tmpl := NewEncapTemplate(src, dst, PortLISPData, PortLISPData)
	inner := make([]byte, 512)
	var sink []byte
	per := testing.AllocsPerRun(200, func() {
		sink = tmpl.Encap(inner, 0x42)
	})
	_ = sink
	if per != 1 {
		t.Fatalf("EncapTemplate.Encap allocates %.1f per packet, want 1", per)
	}
}

// checkEncapInPlace runs one (inner, nonce, spare capacity) case through
// the three encap routes — full serialization, Encap on an exact-capacity
// copy, Encap on a frame with spare bytes of tail-room — and checks that
// all produce the same bytes, that the in-place route writes nothing past
// the frame it returns, and that a frame without enough room is neither
// written to nor aliased (the invariant a caller replaying one frame
// through an ITR relies on).
func checkEncapInPlace(t *testing.T, inner []byte, nonce uint32, spare int) {
	t.Helper()
	const guard = 0xa5
	src := netaddr.MustParseAddr("10.0.0.1")
	dst := netaddr.MustParseAddr("12.0.0.1")
	tmpl := NewEncapTemplate(src, dst, PortLISPData, PortLISPData)
	n := len(inner)
	want := slowEncap(src, dst, PortLISPData, PortLISPData, nonce, inner)

	exact := bytes.Clone(inner)[:n:n]
	if got := tmpl.Encap(exact, nonce); !bytes.Equal(got, want) {
		t.Fatalf("inner=%d nonce=%06x: copying output diverges from Serialize", n, nonce)
	}
	if !bytes.Equal(exact, inner) {
		t.Fatalf("inner=%d: Encap wrote to an exact-capacity frame", n)
	}

	// The frame under test, then spare bytes of room, then bytes that are
	// not the frame's at all; everything past the frame starts as guard.
	backing := bytes.Repeat([]byte{guard}, n+spare+16)
	copy(backing, inner)
	got := tmpl.Encap(backing[:n:n+spare], nonce)
	if !bytes.Equal(got, want) {
		t.Fatalf("inner=%d nonce=%06x spare=%d: output diverges from Serialize\n got %x\nwant %x", n, nonce, spare, got, want)
	}
	inPlace := &got[0] == &backing[0]
	if inPlace != (spare >= EncapTemplateLen) {
		t.Fatalf("inner=%d spare=%d: in place = %v", n, spare, inPlace)
	}
	untouched := n // without room, the caller's frame and all behind it
	if inPlace {
		untouched = len(got)
	} else if !bytes.Equal(backing[:n], inner) {
		t.Fatalf("inner=%d spare=%d: Encap wrote to a frame it had to copy", n, spare)
	}
	for i, b := range backing[untouched:] {
		if b != guard {
			t.Fatalf("inner=%d spare=%d: byte %d past the frame was written", n, spare, untouched+i)
		}
	}
}

// encapInPlaceCases are the hand-picked corners: empty and odd inners, the
// room boundary on both sides, the largest frame.
var encapInPlaceCases = []struct {
	n     int
	nonce uint32
	spare int
}{
	{0, 0, 0}, {0, 0xffffff, 36}, {1, 1, 35}, {1, 1, 36}, {1, 1, 37}, {19, 0xabcdef, 64},
	{20, 0x00ff00, 36}, {63, 7, 0}, {512, 0x42, 36}, {513, 0x42, 40}, {1499, 0x123456, 35}, {1500, 0xffffff, 64},
}

func patternBytes(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*31 + seed
	}
	return b
}

// TestEncapInPlaceProperty: for random inner lengths 0-1500, nonces and
// spare capacities 0-64, in-place output = copying output = Serialize.
func TestEncapInPlaceProperty(t *testing.T) {
	for _, c := range encapInPlaceCases {
		checkEncapInPlace(t, patternBytes(c.n, 7), c.nonce, c.spare)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		inner := make([]byte, rng.Intn(1501))
		rng.Read(inner)
		checkEncapInPlace(t, inner, rng.Uint32(), rng.Intn(65))
	}
}

// FuzzEncapInPlace is the same property over fuzzer-chosen cases.
func FuzzEncapInPlace(f *testing.F) {
	for _, c := range encapInPlaceCases {
		f.Add(patternBytes(c.n, 7), c.nonce, uint8(c.spare))
	}
	f.Fuzz(func(t *testing.T, inner []byte, nonce uint32, spare uint8) {
		if len(inner) > 1500 {
			inner = inner[:1500]
		}
		checkEncapInPlace(t, inner, nonce, int(spare%65))
	})
}
