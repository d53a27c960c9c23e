package experiments

import (
	"testing"
)

// TestE11PCEBeatsPullOnFlashCrowd encodes the experiment's acceptance
// criterion: in the flash-crowd scenario the PCE control plane must
// rebalance strictly faster (lower time-to-rebalance) and hold a
// strictly lower peak utilization than every pull-based control plane.
func TestE11PCEBeatsPullOnFlashCrowd(t *testing.T) {
	ps := e11Scale(true)
	pce := e11RunCell(CPPCE, "flash-crowd", 1, ps)
	if pce.applies == 0 {
		t.Fatal("suspicious: the PCE optimizer never pushed weights (did the flash land?)")
	}
	if pce.telMsgs == 0 {
		t.Fatal("suspicious: no telemetry streamed under PCE-CP")
	}
	for _, cp := range []CP{CPALT, CPCONS, CPMSMR, CPNERD} {
		pull := e11RunCell(cp, "flash-crowd", 1, ps)
		if pce.reconv >= pull.reconv {
			t.Errorf("%s: PCE time-to-rebalance %v not strictly below %v", cp, pce.reconv, pull.reconv)
		}
		if pce.peak >= pull.peak {
			t.Errorf("%s: PCE peak utilization %.3f not strictly below %.3f", cp, pce.peak, pull.peak)
		}
	}
}

// TestE11TelemetryOnlyUnderPCE: the pull planes' site optimizer samples
// its own border interfaces for free; only the PCE deployment spends
// telemetry messages (and only it may push MappingUpdates).
func TestE11TelemetryOnlyUnderPCE(t *testing.T) {
	ps := e11Scale(true)
	if r := e11RunCell(CPMSMR, "flash-crowd", 1, ps); r.telMsgs != 0 {
		t.Fatalf("MS/MR cell streamed %d telemetry messages", r.telMsgs)
	}
	if r := e11RunCell(CPPCE, "flash-crowd", 1, ps); r.telMsgs == 0 {
		t.Fatal("PCE cell streamed no telemetry")
	}
}

// TestE11EveryCPSurvivesEveryScenario smoke-runs the full grid at quick
// scale: every cell must carry traffic and account sanely.
func TestE11EveryCPSurvivesEveryScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full E11 grid")
	}
	ps := e11Scale(true)
	for _, sc := range e11Scenarios {
		for _, cp := range AllCPs {
			r := e11RunCell(cp, sc.key, 7, ps)
			if r.delivered == 0 {
				t.Errorf("%s/%s: no inbound goodput", sc.key, cp)
			}
			if r.peak <= 0 {
				t.Errorf("%s/%s: peak utilization %v", sc.key, cp, r.peak)
			}
			if cp == CPPreinstalled && r.applies != 0 {
				t.Errorf("%s/ideal ran an optimizer: %d applies", sc.key, r.applies)
			}
		}
	}
}

// BenchmarkE11Quick is one quick E11 regeneration (seed 1) per op: three
// quarters of a sim_suite pass, and the loop the per-packet allocation
// work is measured on step by step (-benchmem; the tables must not move).
func BenchmarkE11Quick(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(E11InboundTE(1, true).Rows()) == 0 {
			b.Fatal("E11 produced no rows")
		}
	}
}
