package experiments

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/obs"
)

// TestWorldRegistry pins the EXPERIMENTS.md recipe for reading E-series
// counters straight from a registry: arm WorldConfig.Obs, drive a flow,
// and the registered series agree with the components' own Stats()
// snapshots — same cells, two views.
func TestWorldRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	w := BuildWorld(WorldConfig{CP: CPPCE, Domains: 2, Seed: 3, Obs: reg})
	w.Settle()
	var res FlowResult
	w.StartFlow(0, 0, 1, 0, func(r FlowResult) { res = r })
	w.Sim.RunFor(10 * time.Second)
	if !res.OK {
		t.Fatal("flow failed")
	}

	itr := w.In.Domains[0].XTRs[0]
	stats := itr.Stats()
	if stats.EncapPackets == 0 {
		t.Fatal("no encapsulated packets after a completed flow — scenario too weak to test the registry")
	}
	encap, ok := reg.Value("pcelisp_xtr_encap_packets_total",
		obs.Label{Key: "node", Value: itr.HostName()})
	if !ok || uint64(encap) != stats.EncapPackets {
		t.Errorf("registry encap = %v (ok=%v), Stats() = %d", encap, ok, stats.EncapPackets)
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	for _, series := range []string{
		"pcelisp_mapcache_hits_total",
		"pcelisp_xtr_encap_packets_total",
		"pcelisp_pce_ipc_queries_total",
	} {
		if !strings.Contains(sb.String(), series) {
			t.Errorf("world exposition missing %s", series)
		}
	}
}

// TestWorldRegistryMSMR covers the mapping-system side of the same
// recipe: a MS/MR world registers the map-server and map-resolver
// counters, and a resolved flow shows up in them.
func TestWorldRegistryMSMR(t *testing.T) {
	reg := obs.NewRegistry()
	w := BuildWorld(WorldConfig{CP: CPMSMR, Domains: 2, Seed: 3, Obs: reg})
	w.Settle()
	var res FlowResult
	w.StartFlow(0, 0, 1, 0, func(r FlowResult) { res = r })
	w.Sim.RunFor(30 * time.Second)
	if !res.OK {
		t.Fatal("flow failed")
	}
	fwd, ok := reg.Value("pcelisp_mr_forwarded_total", obs.Label{Key: "node", Value: "map-resolver"})
	if !ok || fwd == 0 {
		t.Errorf("mr forwarded = %v (ok=%v), want > 0", fwd, ok)
	}
	if got := w.MSMR.MR.Stats().Forwarded; uint64(fwd) != got {
		t.Errorf("registry forwarded = %v, Stats() = %d", fwd, got)
	}
}

// TestExpositionGolden pins the metric namespace: the full Prometheus
// exposition of a PCE-CP world and of an MS/MR world after one flow —
// names, HELP, TYPE, label sets, order and values — must match the
// committed goldens byte for byte. A refactor of how counters are
// declared may not move any of it; `-update` rewrites the goldens when a
// series is added or renamed on purpose.
func TestExpositionGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		cp     CP
		run    time.Duration
	}{
		{"testdata/exposition_pce.golden", CPPCE, 10 * time.Second},
		{"testdata/exposition_msmr.golden", CPMSMR, 30 * time.Second},
	} {
		reg := obs.NewRegistry()
		w := BuildWorld(WorldConfig{CP: tc.cp, Domains: 2, Seed: 3, Obs: reg})
		w.Settle()
		var res FlowResult
		w.StartFlow(0, 0, 1, 0, func(r FlowResult) { res = r })
		w.Sim.RunFor(tc.run)
		if !res.OK {
			t.Fatalf("%s: flow failed", tc.cp)
		}
		var got bytes.Buffer
		if err := reg.WritePrometheus(&got); err != nil {
			t.Fatal(err)
		}
		if *updateDigest {
			if err := os.WriteFile(tc.golden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s exposition differs from %s (-update rewrites it):\n%s", tc.cp, tc.golden, firstDiff(got.String(), string(want)))
		}
	}
}

// firstDiff names the first line at which two expositions part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
