package main

import (
	"fmt"
	"time"

	"github.com/pcelisp/pcelisp/internal/experiments"
	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/metrics"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

// scenario is the -scenario mode: one configurable world on the simulated
// internet, reporting flow and control-plane statistics — the quick way
// to poke at the system without the experiment harness.
type scenario struct {
	cp      experiments.CP
	seed    int64
	domains int
	flows   int
	policy  string
	trace   bool
}

// run drives the flows and prints the summary table; it returns 1 when no
// flow completed.
func (sc scenario) run() int {
	miss := lisp.MissDrop // run validated policy as drop|queue
	if sc.policy == "queue" {
		miss = lisp.MissQueue
	}
	w := experiments.BuildWorld(experiments.WorldConfig{
		CP:         sc.cp,
		Domains:    sc.domains,
		Seed:       sc.seed,
		MissPolicy: miss,
	})
	if sc.trace {
		w.Sim.Trace = func(ev simnet.TraceEvent) {
			if ev.Kind == simnet.TraceDrop {
				fmt.Printf("%12v  %-8s %-12s %s\n", ev.At, ev.Kind, ev.Node, ev.Reason)
			}
		}
	}
	w.Settle()

	setup := metrics.NewSummary("setup")
	tdns := metrics.NewSummary("tdns")
	ok := 0
	for i := 0; i < sc.flows; i++ {
		srcD := i % sc.domains
		dstD := (i + 1 + i/sc.domains) % sc.domains
		if dstD == srcD {
			dstD = (dstD + 1) % sc.domains
		}
		w.Sim.ScheduleFunc(time.Duration(i)*2*time.Second, func() {
			w.StartFlow(srcD, 0, dstD, 0, func(res experiments.FlowResult) {
				if res.OK {
					ok++
					setup.AddDuration(res.Setup)
					tdns.AddDuration(res.TDNS)
				}
			})
		})
	}
	w.Sim.RunFor(time.Duration(sc.flows)*2*time.Second + 90*time.Second)

	tbl := metrics.NewTable(
		fmt.Sprintf("scenario: %s, %d domains, %d flows (seed %d)", sc.cp, sc.domains, sc.flows, sc.seed),
		"metric", "value")
	tbl.AddRow("flows completed", fmt.Sprintf("%d/%d", ok, sc.flows))
	tbl.AddRow("mean TDNS", metrics.FormatMs(tdns.Mean()))
	tbl.AddRow("mean setup", metrics.FormatMs(setup.Mean()))
	tbl.AddRow("p95 setup", metrics.FormatMs(setup.P95()))
	tbl.AddRow("ITR drops", w.ITRDrops())
	tbl.AddRow("ITR state entries", w.ITRStateEntries())
	msgs, bytes := w.ControlTotals()
	tbl.AddRow("control messages", msgs)
	tbl.AddRow("control KB", float64(bytes)/1024)
	fmt.Println(tbl.String())

	if ok == 0 {
		return 1
	}
	return 0
}
