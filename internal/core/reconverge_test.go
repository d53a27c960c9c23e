package core

import (
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

// enableProbing turns on RLOC probing at every xTR of the world with
// fast test settings.
func (w *pceWorld) enableProbing() {
	for _, d := range w.in.Domains {
		for _, x := range d.XTRs {
			x.EnableProbing(lisp.ProbeConfig{Interval: time.Second, FailAfter: 2, RecoverAfter: 2})
		}
	}
}

// establishFlow resolves dst from src and pushes one data packet through
// so both directions' mappings are installed, then returns the flow
// entry at the source ITR.
func establishFlow(t *testing.T, w *pceWorld) lisp.FlowEntry {
	t.Helper()
	d0, d1 := w.in.Domain(0), w.in.Domain(1)
	src, dst := d0.Hosts[0], d1.Hosts[0]
	src.DNS.Lookup(dst.Name, func(netaddr.Addr, simnet.Time, bool) {})
	w.in.Sim.RunFor(2 * time.Second)
	src.Node.SendUDP(src.Addr, dst.Addr, 1, 9900, packet.Payload("warm"))
	w.in.Sim.RunFor(time.Second)
	fe, ok := d0.XTRs[0].Flows.Lookup(lisp.FlowKey{Src: src.Addr, Dst: dst.Addr})
	if !ok {
		t.Fatal("flow never installed")
	}
	return fe
}

// TestProbeDrivenFailoverRepushesFlow: cutting the destination provider
// link carrying a live flow makes the source xTR's prober flip the
// locator, the PCE consume the report and re-push the flow onto the
// surviving RLOC — data keeps flowing without any TTL expiry.
func TestProbeDrivenFailoverRepushesFlow(t *testing.T) {
	w := newPCEWorld(t, defaultSpec())
	sim := w.in.Sim
	w.enableProbing()
	fe := establishFlow(t, w)
	d0, d1 := w.in.Domain(0), w.in.Domain(1)
	src, dst := d0.Hosts[0], d1.Hosts[0]

	// Cut the d1 provider carrying the flow's destination RLOC.
	var cut, survivor netaddr.Addr
	plan := simnet.NewFailurePlan(sim)
	for _, prov := range d1.Providers {
		if prov.RLOC == fe.DstRLOC {
			cut = prov.RLOC
			plan.LinkDown(sim.Now(), prov.Link)
		} else {
			survivor = prov.RLOC
		}
	}
	if !cut.IsValid() || !survivor.IsValid() {
		t.Fatalf("flow DstRLOC %v is not a d1 provider", fe.DstRLOC)
	}
	plan.Schedule()
	sim.RunFor(5 * time.Second) // FailAfter=2 at 1s interval, plus push RTT

	fe2, ok := d0.XTRs[0].Flows.Lookup(lisp.FlowKey{Src: src.Addr, Dst: dst.Addr})
	if !ok {
		t.Fatal("flow entry lost during failover")
	}
	if fe2.DstRLOC != survivor {
		t.Fatalf("flow DstRLOC = %v after cut, want survivor %v", fe2.DstRLOC, survivor)
	}
	if w.pces[0].Stats().ReachabilityReports == 0 || w.pces[0].Stats().FailoverRepushes == 0 {
		t.Fatalf("PCE consumed no reports: %+v", w.pces[0].Stats())
	}
	// Data still arrives.
	delivered := 0
	dst.Node.ListenUDP(9901, func(*simnet.Delivery, *packet.UDP) { delivered++ })
	src.Node.SendUDP(src.Addr, dst.Addr, 1, 9901, packet.Payload("post-failover"))
	sim.RunFor(time.Second)
	if delivered != 1 {
		t.Fatal("data blackholed after probe-driven failover")
	}
}

// TestEgressFlapFailover: downing the source xTR's in-use egress
// interface raises an egress-state report; the PCE marks the provider
// down in the IRC engine and re-pushes the flow with the surviving
// ingress RLOC, so outbound traffic leaves via the other provider while
// the interface is down.
func TestEgressFlapFailover(t *testing.T) {
	w := newPCEWorld(t, defaultSpec())
	sim := w.in.Sim
	w.enableProbing()
	fe := establishFlow(t, w)
	d0, d1 := w.in.Domain(0), w.in.Domain(1)
	src, dst := d0.Hosts[0], d1.Hosts[0]

	egress := d0.XTRs[0].Host().(*simnet.Node).IfaceByAddr(fe.SrcRLOC)
	if egress == nil {
		t.Fatalf("no egress iface owns %v", fe.SrcRLOC)
	}
	egress.SetUp(false)
	sim.RunFor(3 * time.Second)

	fe2, ok := d0.XTRs[0].Flows.Lookup(lisp.FlowKey{Src: src.Addr, Dst: dst.Addr})
	if !ok {
		t.Fatal("flow entry lost during flap")
	}
	if fe2.SrcRLOC == fe.SrcRLOC {
		t.Fatalf("flow still pinned to dead egress %v", fe.SrcRLOC)
	}
	delivered := 0
	dst.Node.ListenUDP(9902, func(*simnet.Delivery, *packet.UDP) { delivered++ })
	src.Node.SendUDP(src.Addr, dst.Addr, 1, 9902, packet.Payload("via survivor"))
	sim.RunFor(time.Second)
	if delivered != 1 {
		t.Fatal("data blackholed during egress flap")
	}

	// Recovery: the engine learns the provider is back; no stale state.
	egress.SetUp(true)
	sim.RunFor(3 * time.Second)
	up := 0
	for _, s := range w.pces[0].Engine().Snapshot() {
		if s.Up {
			up++
		}
	}
	if up != len(d0.Providers) {
		t.Fatalf("%d of %d providers up after recovery", up, len(d0.Providers))
	}
}
