package experiments

import "testing"

// TestSimThroughputAllocs is the simulator's data-plane allocation
// budget: 1,000 one-hop data packets through a preinstalled two-domain
// world cost 2 allocations each — the frame, which the ITR encapsulates
// in its own tail-room, and the IPv4 header the receiving host decodes
// before its TCP handler runs (2,001 per round when the budget was set;
// 5 % headroom). The count is exact and host-independent, which a
// wall-clock gate is not.
func TestSimThroughputAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector, so pooled buffers re-allocate")
	}
	const budget, ceiling = 2001, 2101
	w := BuildWorld(WorldConfig{CP: CPPreinstalled, Domains: 2, Seed: 1})
	w.Settle()
	dst := w.In.Domains[1].Hosts[0]
	w.TCP[1][0].Listen(9999)
	per := testing.AllocsPerRun(20, func() {
		for j := 0; j < 1000; j++ {
			w.TCP[0][0].SendData(dst.Addr, 40000, 9999, 1, 512)
		}
		w.Sim.Run()
	})
	if per > ceiling {
		t.Fatalf("1000 packets cost %.0f allocs, budget %d (fails above %d)", per, budget, ceiling)
	}
	t.Logf("1000 packets: %.0f allocs (budget %d)", per, budget)
}
