package obs

import (
	"strings"
	"testing"
)

// demoCounters is the single-declaration idiom under test: one field
// list, live with Counter and snapshotted with uint64.
type demoCounters[T any] struct {
	Rx T `metric:"rx_total" help:"Frames in."`
	Tx T `metric:"tx_total" help:"Frames out."`
}

type demoSet struct {
	demoCounters[Counter]
	Depth   Gauge     `metric:"depth" help:"Queue depth."`
	Latency Histogram `metric:"latency_seconds" help:"Latency."`
}

func TestRegisterSetAndSnapshot(t *testing.T) {
	var m demoSet
	r := NewRegistry()
	r.RegisterSet("demo_", &m, Label{"node", "n"})
	m.Rx.Add(3)
	m.Tx.Inc()
	m.Depth.Set(9)
	m.Latency.Observe(1)

	if got, want := Snapshot[demoCounters[uint64]](&m.demoCounters), (demoCounters[uint64]{Rx: 3, Tx: 1}); got != want {
		t.Errorf("Snapshot = %+v, want %+v", got, want)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"# HELP demo_rx_total Frames in.",
		`demo_rx_total{node="n"} 3`,
		`demo_tx_total{node="n"} 1`,
		`demo_depth{node="n"} 9`,
		`demo_latency_seconds_count{node="n"} 1`,
	} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("exposition lacks %q:\n%s", line, sb.String())
		}
	}
}

// TestSetMisdeclarationPanics: a set that cannot be registered or
// snapshotted as declared fails when its owner is constructed — also
// with observability off (nil registry) — not when a test happens to
// read the counter.
func TestSetMisdeclarationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	var nilReg *Registry
	var ok demoSet
	if n := testing.AllocsPerRun(100, func() { nilReg.RegisterSet("demo_", &ok, Label{"node", "n"}) }); n != 0 {
		t.Errorf("checking a well-formed set against a nil registry allocates %.0f times, want 0", n)
	}
	mustPanic("untagged cell", func() {
		nilReg.RegisterSet("x_", &struct{ A Counter }{})
	})
	mustPanic("cell without help", func() {
		nilReg.RegisterSet("x_", &struct {
			A Counter `metric:"a_total"`
		}{})
	})
	mustPanic("non-cell field", func() {
		nilReg.RegisterSet("x_", &struct {
			A uint64 `metric:"a_total" help:"a"`
		}{})
	})
	mustPanic("duplicate series", func() {
		NewRegistry().RegisterSet("x_", &struct {
			A Counter `metric:"a_total" help:"a"`
			B Counter `metric:"a_total" help:"a"`
		}{})
	})
	mustPanic("snapshot of a different list", func() {
		Snapshot[struct{ Rx, Other uint64 }](&demoCounters[Counter]{})
	})
	mustPanic("snapshot of a shorter list", func() {
		Snapshot[struct{ Rx uint64 }](&demoCounters[Counter]{})
	})
	mustPanic("snapshot of non-counters", func() {
		Snapshot[demoCounters[uint64]](&demoCounters[Gauge]{})
	})
}
