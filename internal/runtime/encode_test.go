package runtime

import (
	"bytes"
	"testing"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
)

// TestEncodeUDPSingleAlloc pins what a datagram costs to build: the frame
// and nothing else — the header pair and the layer list come from the
// pooled scratch. Both entry points run one body, so the exact frame
// (cap == len, the shape callers that replay a frame rely on) and the
// roomy one carry the same bytes.
func TestEncodeUDPSingleAlloc(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector, so the pooled scratch re-allocates")
	}
	src, dst := netaddr.MustParseAddr("100.1.0.5"), netaddr.MustParseAddr("100.2.0.9")
	payload := make(packet.Payload, 512)
	var exact, roomy []byte
	if per := testing.AllocsPerRun(200, func() { exact = EncodeUDP(src, dst, 4000, 4001, &payload) }); per != 1 {
		t.Fatalf("EncodeUDP allocates %.1f per datagram, want 1 (the frame)", per)
	}
	if per := testing.AllocsPerRun(200, func() {
		roomy = EncodeUDPRoom(packet.EncapTemplateLen, src, dst, 4000, 4001, &payload)
	}); per != 1 {
		t.Fatalf("EncodeUDPRoom allocates %.1f per datagram, want 1 (the frame)", per)
	}
	if cap(exact) != len(exact) {
		t.Fatalf("EncodeUDP returned cap %d for len %d, want an exact frame", cap(exact), len(exact))
	}
	if cap(roomy)-len(roomy) != packet.EncapTemplateLen || !bytes.Equal(roomy, exact) {
		t.Fatalf("EncodeUDPRoom: spare %d (want %d), same bytes as EncodeUDP: %v",
			cap(roomy)-len(roomy), packet.EncapTemplateLen, bytes.Equal(roomy, exact))
	}
}
