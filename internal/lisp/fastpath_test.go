package lisp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/obs"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

// encapScenario drives one deterministic traffic script through a fresh
// world and returns every frame the core saw, in order. The script
// exercises each pin-invalidation edge: weight updates, reachability
// flips, explicit invalidation, TTL expiry with re-installation, and the
// PCE per-flow (4-tuple) path.
func encapScenario(t *testing.T, disableFast bool) [][]byte {
	t.Helper()
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissDrop})
	w.xtrS.disableFastPath = disableFast
	var frames [][]byte
	w.core.AddSniffer(func(d *simnet.Delivery) simnet.SnifferVerdict {
		frames = append(frames, append([]byte(nil), d.Data...))
		return simnet.SnifferPass
	})
	w.hD.ListenUDP(9000, func(*simnet.Delivery, *packet.UDP) {})

	// Bounded windows, not Run(): draining the whole queue would also
	// fire the map-cache TTL wheel and expire the entry mid-script.
	send := func(payload string) {
		w.sendData(payload)
		w.sim.RunFor(100 * time.Millisecond)
	}
	locators := func() []packet.LISPLocator {
		return []packet.LISPLocator{loc("12.0.0.1", 1, 100), loc("12.0.0.2", 1, 50)}
	}

	// Establish the flow: first packet selects and (fast path) pins.
	w.xtrS.Cache.Insert(netaddr.MustParsePrefix("100.2.0.0/16"), locators(), 2)
	for i := 0; i < 3; i++ {
		send(fmt.Sprintf("warm-%d", i))
	}

	// Weight update through the cache (the PCE weight-push path): the
	// pin generation must fall behind and force re-selection.
	if !w.xtrS.Cache.UpdateLocators(netaddr.MustParsePrefix("100.2.0.0/16"),
		[]packet.LISPLocator{loc("12.0.0.1", 1, 0), loc("12.0.0.2", 1, 100)}) {
		t.Fatal("UpdateLocators missed the live prefix")
	}
	for i := 0; i < 3; i++ {
		send(fmt.Sprintf("reweighted-%d", i))
	}

	// Reachability flip down and back up.
	e, ok := w.xtrS.Cache.Lookup(w.eidD)
	if !ok {
		t.Fatal("mapping lost")
	}
	e.SetLocatorReachable(netaddr.MustParseAddr("12.0.0.2"), false)
	send("failover")
	e.SetLocatorReachable(netaddr.MustParseAddr("12.0.0.2"), true)
	send("failback")

	// Explicit invalidation (probe machinery path).
	e.InvalidateSelection()
	send("revalidated")

	// TTL expiry: the 2s TTL lapses, the next packet misses (dropped —
	// both runs must agree), then a re-install restores traffic with a
	// fresh entry, which must also repin cleanly.
	w.sim.RunFor(3 * time.Second)
	send("expired-miss")
	w.xtrS.Cache.Insert(netaddr.MustParsePrefix("100.2.0.0/16"), locators(), 60)
	send("reinstalled")

	// PCE per-flow 4-tuple path (flow-table template).
	w.xtrS.InstallFlow(w.eidS, w.eidD, netaddr.MustParseAddr("10.0.0.1"),
		netaddr.MustParseAddr("12.0.0.1"), 60)
	for i := 0; i < 3; i++ {
		send(fmt.Sprintf("flow-%d", i))
	}
	return frames
}

// TestEncapFastPathMatchesSlowPath pins the tentpole's byte-identity
// contract: with the established-flow fast path enabled and disabled, the
// exact same frames — headers, checksums, nonces — must cross the core,
// across weight updates, reachability flips, invalidation and TTL expiry.
func TestEncapFastPathMatchesSlowPath(t *testing.T) {
	fast := encapScenario(t, false)
	slow := encapScenario(t, true)
	if len(fast) != len(slow) {
		t.Fatalf("frame counts diverge: fast=%d slow=%d", len(fast), len(slow))
	}
	// 13 = 3 warm + 3 reweighted + failover + failback + revalidated +
	// reinstalled + 3 flow-table (the expired-miss send never leaves the
	// ITR).
	if len(fast) < 13 {
		t.Fatalf("scenario too small to be meaningful: %d frames", len(fast))
	}
	for i := range fast {
		if !bytes.Equal(fast[i], slow[i]) {
			t.Fatalf("frame %d diverges\n fast %x\n slow %x", i, fast[i], slow[i])
		}
	}
}

// TestEncapFastPathAllocs pins the fast path's allocation budget: once a
// flow is pinned, encapsulating one packet allocates only the output
// buffer. The egress interface is admin-down so the frame is dropped at
// transmit — the pin stays valid (generation unchanged) and nothing
// downstream of the encap runs inside the measured region.
func TestEncapFastPathAllocs(t *testing.T) {
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissDrop})
	w.xtrS.InstallMapping(dMapping())
	w.hD.ListenUDP(9000, func(*simnet.Delivery, *packet.UDP) {})
	w.sendData("warm")
	w.sim.Run()
	if len(w.xtrS.pins) != 1 {
		t.Fatalf("pins = %d, want 1", len(w.xtrS.pins))
	}
	out := w.xtrS.host.(*simnet.Node).IfaceByAddr(netaddr.MustParseAddr("10.0.0.1"))
	if out == nil {
		t.Fatal("no egress iface for the RLOC")
	}
	out.SetUp(false)
	data := simnet.EncodeUDP(w.eidS, w.eidD, 40000, 9000, packet.Payload("payload-bytes"))
	per := testing.AllocsPerRun(200, func() {
		w.xtrS.handleOutbound(w.eidS, w.eidD, data)
	})
	if per > 2 {
		t.Fatalf("fast-path encap allocates %.1f per packet, want <= 2", per)
	}
}

// TestEncapFastPathInPlaceZeroAlloc pins what tail-room buys: a pinned
// flow's frame that arrives with packet.EncapTemplateLen bytes of spare
// capacity — as every frame a host originates does — is encapsulated
// where it lies, so the per-packet path allocates nothing and
// EncapCopies stays 0. The same frame at exact capacity takes the
// copying fallback and is counted. Setup as TestEncapFastPathAllocs.
func TestEncapFastPathInPlaceZeroAlloc(t *testing.T) {
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissDrop})
	w.xtrS.InstallMapping(dMapping())
	w.hD.ListenUDP(9000, func(*simnet.Delivery, *packet.UDP) {})
	w.sendData("warm")
	w.sim.Run()
	if len(w.xtrS.pins) != 1 {
		t.Fatalf("pins = %d, want 1", len(w.xtrS.pins))
	}
	w.xtrS.host.(*simnet.Node).IfaceByAddr(netaddr.MustParseAddr("10.0.0.1")).SetUp(false)
	exact := simnet.EncodeUDP(w.eidS, w.eidD, 40000, 9000, packet.Payload("payload-bytes"))
	roomy := make([]byte, len(exact), len(exact)+packet.EncapTemplateLen)
	before := w.xtrS.Stats()
	per := testing.AllocsPerRun(200, func() {
		copy(roomy, exact) // the encap rewrote it: restore the inner frame
		w.xtrS.handleOutbound(w.eidS, w.eidD, roomy)
	})
	if per != 0 {
		t.Fatalf("in-place fast-path encap allocates %.1f per packet, want 0", per)
	}
	after := w.xtrS.Stats()
	if after.EncapPackets-before.EncapPackets != 201 || after.EncapCopies != before.EncapCopies {
		t.Fatalf("in-place run: EncapPackets +%d (want 201), EncapCopies +%d (want 0)",
			after.EncapPackets-before.EncapPackets, after.EncapCopies-before.EncapCopies)
	}
	w.xtrS.handleOutbound(w.eidS, w.eidD, exact)
	if got := w.xtrS.Stats().EncapCopies - after.EncapCopies; got != 1 {
		t.Fatalf("exact-capacity frame: EncapCopies +%d, want 1", got)
	}
}

// TestEncapFastPathAllocsInstrumented re-pins the same budget with the
// observability layer fully armed: a registry collecting the xTR and
// map-cache counters and a flight recorder attached. Counter increments
// are atomic adds on pre-registered cells and Record writes into a fixed
// ring, so instrumentation must not add a single allocation to the
// per-packet path.
func TestEncapFastPathAllocsInstrumented(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewFlightRecorder(obs.DefaultRingSize)
	w := newLISPWorld(t, XTRConfig{MissPolicy: MissDrop, Obs: reg, Recorder: rec})
	w.xtrS.InstallMapping(dMapping())
	w.hD.ListenUDP(9000, func(*simnet.Delivery, *packet.UDP) {})
	w.sendData("warm")
	w.sim.Run()
	if len(w.xtrS.pins) != 1 {
		t.Fatalf("pins = %d, want 1", len(w.xtrS.pins))
	}
	out := w.xtrS.host.(*simnet.Node).IfaceByAddr(netaddr.MustParseAddr("10.0.0.1"))
	if out == nil {
		t.Fatal("no egress iface for the RLOC")
	}
	out.SetUp(false)
	data := simnet.EncodeUDP(w.eidS, w.eidD, 40000, 9000, packet.Payload("payload-bytes"))
	per := testing.AllocsPerRun(200, func() {
		w.xtrS.handleOutbound(w.eidS, w.eidD, data)
	})
	if per > 2 {
		t.Fatalf("instrumented fast-path encap allocates %.1f per packet, want <= 2", per)
	}
	if v, ok := reg.Value("pcelisp_xtr_encap_packets_total", obs.Label{Key: "node", Value: "xtrS"}); !ok || v == 0 {
		t.Fatal("instrumented run recorded no encap packets — registry not wired")
	}
}
