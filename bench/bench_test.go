package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
)

// smokeSizing shrinks every workload so the whole suite runs in seconds;
// the shapes (phases, rounds, checks) are the benchmark's own.
var smokeSizing = sizing{
	fwdFlows: 64, fwdWarmup: 400, fwdRound: 100,
	setupNames: 16, setupSources: 4, setupRound: 40,
	hotBatch: 100, hotRoundBatches: 4, hotWarmupBatches: 4,
	simDomains: 3, simHosts: 2, simWarmRounds: 1,
	opTimeout:   300 * time.Millisecond,
	probeRounds: 3, probeRound: 200 * time.Microsecond,
}

const smokeWindow = 0.2 // seconds

// testMeter gives a test the meter every workload is built with.
func testMeter(t *testing.T) *meter {
	t.Helper()
	m, err := newMeter()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.close)
	m.start()
	return m
}

// benchmarkJSON mirrors the driver's contract file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogueMatchesBenchmarkJSON holds the code's metric catalogue and
// the contract file together, in both directions and in order.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, is %d", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, code %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	seen := make(map[string]bool)
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q outside the contract's charset", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q outside the contract's charset", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestSmokeEveryWorkload runs every workload (sim_hot too, which
// BENCHMARK.json leaves out) untraced and traced at a 200 ms window and
// checks that what it emits is exactly the catalogue, that nothing failed,
// and that no end-to-end metric reads zero.
func TestSmokeEveryWorkload(t *testing.T) {
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.name)
		}
		sort.Strings(out)
		return out
	}
	for _, wl := range allWorkloads {
		for _, trace := range []bool{false, true} {
			out, err := run(io.Discard, wl, 1, smokeWindow, trace, smokeSizing)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, trace, out.Correct, out.Attempted, out.Failed)
			}
			want := names(endToEnd)
			if trace {
				want = names(perLayer)
			}
			var got []string
			for name, v := range out.Metrics {
				got = append(got, name)
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", wl, trace, name, v.Value)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl, name, v.Value)
				}
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("%s trace=%v: emitted %d metrics, catalogue has %d", wl, trace, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s trace=%v: emitted %q where the catalogue has %q", wl, trace, got[i], want[i])
				}
			}
			if trace {
				if _, err := os.Stat("out/" + wl + ".spans.json"); err != nil {
					t.Errorf("%s: no spans file: %v", wl, err)
				}
			}
		}
	}
}

// tap stands on the wire between A and B's locators and damages the nth
// frame it carries: flips one payload byte, or drops the frame.
func tap(t *testing.T, to *net.UDPAddr, nth int, drop bool) *net.UDPAddr {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		for seen := 1; ; seen++ {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return // closed by cleanup
			}
			if seen == nth {
				if drop {
					continue
				}
				buf[n-1] ^= 0x01
			}
			if _, err := conn.WriteToUDP(buf[:n], to); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		conn.Close()
		<-done
	})
	return conn.LocalAddr().(*net.UDPAddr)
}

// TestChecksTrip injects the three faults the correctness checks exist
// for — a corrupted payload byte, a dropped frame, a wrong A record — and
// requires each to surface as failed ops, never as a fast run.
func TestChecksTrip(t *testing.T) {
	window := time.Duration(smokeWindow * float64(time.Second))
	for _, fault := range []struct {
		name string
		drop bool
	}{{"corrupt one payload byte", false}, {"drop one frame", true}} {
		t.Run(fault.name, func(t *testing.T) {
			w := newFwdSmall(1, smokeSizing, testMeter(t))
			defer w.close()
			if err := w.setup(); err != nil {
				t.Fatal(err)
			}
			w.p.a.SetPeer(netaddr.MustParsePrefix("10.1.0.0/16"), tap(t, w.p.b.RealAddr(), 10, fault.drop))
			res, err := w.window(window, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed == 0 {
				t.Fatalf("fault went unnoticed: attempted=%d failed=0", res.attempted)
			}
		})
	}
	t.Run("wrong A record", func(t *testing.T) {
		w := newFlowSetup(1, smokeSizing, testMeter(t))
		defer w.close()
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		cfg := daemonConfig(1, w.names)
		cfg.DNS.Records[0].Addr = remoteEID(w.names + 1).String()
		if err := w.p.b.Reload(cfg); err != nil {
			t.Fatal(err)
		}
		res, err := w.window(window, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed == 0 {
			t.Fatalf("wrong answer went unnoticed: attempted=%d failed=0", res.attempted)
		}
	})
}

// TestGeneratorStepAllocatesNothing is the harness-overhead guard: one
// send+receive+verify step of the generator must not allocate, or the
// harness would show up in allocs_per_op and in the daemons' GC pacing.
func TestGeneratorStepAllocatesNothing(t *testing.T) {
	w := newFwdSmall(1, smokeSizing, testMeter(t))
	defer w.close()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	var lat hist
	err := w.viaReflector(func() error {
		step := phase{outstanding: 1, round: 1, limit: 1, lat: &lat}
		var stepErr error
		allocs := testing.AllocsPerRun(200, func() {
			res, err := w.forward(step, false)
			if err != nil || res.ops != 1 {
				stepErr = err
			}
		})
		if allocs != 0 {
			t.Errorf("one generator step allocates %v times, want 0", allocs)
		}
		return stepErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if lat.n == 0 {
		t.Fatal("no step completed")
	}
}

// TestMeterLapAllocatesNothing extends the guard to the reference spin the
// meter runs between rounds: it shares the heap with the system under
// test, and allocs_per_op charges the window with every allocation.
func TestMeterLapAllocatesNothing(t *testing.T) {
	m := testMeter(t)
	if allocs := testing.AllocsPerRun(20, func() { m.lap() }); allocs != 0 {
		t.Errorf("one meter lap allocates %v times, want 0", allocs)
	}
	if m.err != nil {
		t.Fatal(m.err)
	}
}

// TestSlicesScaleByTheSpins pins the arithmetic of a slice: time at the
// reference speed is raw time divided by how much slower than nominal the
// spins beside it ran, a long slice is followed by more spins than a short
// one, slices add, and a sum's slowdown is the time-weighted one.
func TestSlicesScaleByTheSpins(t *testing.T) {
	m := testMeter(t)
	time.Sleep(5 * time.Millisecond)
	s := m.lap()
	if s.rawWall < 5e6 || s.wall <= 0 {
		t.Fatalf("slice %+v: want at least the 5 ms slept", s)
	}
	if m.spins.n != refSpinsMin {
		t.Errorf("%d spins after a 5 ms slice, want %d", m.spins.n, refSpinsMin)
	}
	// The slowdown is the mean spin over nominal, so it lies between the
	// fastest and the slowest spin over nominal.
	lo, hi := m.spins.quantile(0)/refNominalNs, m.spins.quantile(1)/refNominalNs
	if got := s.slowdown(); got < lo*(1-1e-6) || got > hi*(1+1e-6) {
		t.Errorf("slowdown %v outside [%v, %v], the spins' range over nominal", got, lo, hi)
	}
	time.Sleep(4 * refSpinEvery)
	before := m.spins.n
	m.lap()
	if n := m.spins.n - before; n < 4 || n > 6 {
		t.Errorf("%d spins after a slice of four spin intervals, want 4 (or a few more on a slow clock)", n)
	}

	fast := slice{rawWall: 100, wall: 100, rawCPU: 50, cpu: 50}
	slow := slice{rawWall: 300, wall: 100, rawCPU: 150, cpu: 50}
	sum := fast
	sum.add(slow)
	if sum.rawWall != 400 || sum.wall != 200 || sum.cpu != 100 || sum.slowdown() != 2 {
		t.Errorf("sum %+v slowdown %v, want raw 400, wall 200, cpu 100, slowdown 2", sum, sum.slowdown())
	}
	if total := m.take(); total.rawWall < s.rawWall+float64(4*refSpinEvery) {
		t.Errorf("take() = %+v, want both slices lapped", total)
	}
	if again := m.take(); again != (slice{}) {
		t.Errorf("second take() = %+v, want zero", again)
	}
}

// TestDataFrameChecksumSurvivesStamping proves the sequence/complement
// trick: stamping any sequence number leaves the UDP checksum valid.
func TestDataFrameChecksumSurvivesStamping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	es, ed := clientEID(0), remoteEID(0)
	frame := dataFrame(rng, es, ed, 5, smallPayload)
	for _, seq := range []uint32{0, 1, 0xffff, 0x10000, 0xdeadbeef, ^uint32(0)} {
		stampSeq(frame, seq)
		if !packet.VerifyUDPChecksum(es, ed, frame[packet.IPv4HeaderLen:]) {
			t.Fatalf("seq %#x: UDP checksum no longer verifies", seq)
		}
	}
	if f, ok := dataFlowID(frame, 6); !ok || f != 5 {
		t.Fatalf("flow id = %d, %v", f, ok)
	}
}

// TestHistogramAgainstSortedReference checks the 1 % error budget of the
// log-linear histogram against exact quantiles of the same samples.
func TestHistogramAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []struct {
		name string
		draw func() int64
	}{
		{"uniform 1us-1ms", func() int64 { return 1000 + rng.Int63n(1_000_000) }},
		{"lognormal around 70us", func() int64 { return int64(70_000 * math.Exp(rng.NormFloat64()*0.6)) }},
		{"heavy tail", func() int64 { return int64(15_000 / math.Pow(1-rng.Float64(), 0.7)) }},
		{"seconds", func() int64 { return 1_500_000_000 + rng.Int63n(1_000_000_000) }},
	} {
		var h hist
		ref := make([]float64, 50_000)
		for i := range ref {
			v := shape.draw()
			ref[i] = float64(v)
			h.add(v)
		}
		sort.Float64s(ref)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
			exact := ref[int(math.Ceil(q*float64(len(ref))))-1]
			got := h.quantile(q)
			if rel := math.Abs(got-exact) / exact; rel > 0.01 {
				t.Errorf("%s q=%v: histogram %v, exact %v, error %.2f%%", shape.name, q, got, exact, 100*rel)
			}
		}
	}
	var h hist
	if allocs := testing.AllocsPerRun(100, func() { h.add(12345); h.quantile(0.5) }); allocs != 0 {
		t.Errorf("histogram allocates %v times per add+quantile", allocs)
	}
}

// TestHistogramTail checks "the highest percentile with at least ten
// samples beyond it".
func TestHistogramTail(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{{5, 50}, {19, 50}, {20, 50}, {100, 90}, {1000, 99}, {9999, 99}, {10_000, 99.9}, {1_000_000, 99.999}} {
		var h hist
		for i := 0; i < c.n; i++ {
			h.add(int64(1000 + i))
		}
		if pct, _ := h.tail(); pct != c.pct {
			t.Errorf("n=%d: tail percentile %v, want %v", c.n, pct, c.pct)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10.2, 9.8, 10.0, 10.5, 9.9, 10.1, 10.3, 9.7, 10.4, 10.0}
	q1, q3 := quartiles(v) // python: [9.875, 10.05, 10.325]
	if math.Abs(q1-9.875) > 1e-9 || math.Abs(q3-10.325) > 1e-9 {
		t.Fatalf("quartiles = %v, %v; want 9.875, 10.325", q1, q3)
	}
}
