package simnet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The tests in this file pin the ordering guarantee behind every
// experiment table — events fire in exact (time, scheduling order) — by
// replaying scripted workloads through a Sim and through modelSim, a
// naive model of the same contract, and demanding identical execution
// logs, event counts and clocks.

// diffStep is one scripted timer: it fires delay after it is armed and
// arms its children from inside its handler.
type diffStep struct {
	delay    Time
	children []int
}

// diffPhase arms roots (script indexes) at the current clock, then runs
// to the absolute time until. A negative until runs the queue dry.
type diffPhase struct {
	roots []int
	until Time
}

type diffCase struct {
	name   string
	script []diffStep
	phases []diffPhase
	want   []string // expected log, when the case pins one
}

// diffEngine is what a case needs from the thing it runs on.
type diffEngine struct {
	now     func() Time
	pending func() int
	arm     func(d Time, id int)
	run     func(until Time) int // until < 0: run the queue dry
}

// diffRunner interprets a script on one engine, logging execution order.
type diffRunner struct {
	script    []diffStep
	on        diffEngine
	log       []string
	scheduled int
}

// diffBudget bounds a random script's fan-out.
const diffBudget = 5000

func (d *diffRunner) armStep(id int) {
	d.scheduled++
	d.on.arm(d.script[id].delay, id)
}

func (d *diffRunner) fire(id int) {
	d.log = append(d.log, fmt.Sprintf("%d@%d", id, d.on.now()))
	for _, c := range d.script[id].children {
		if d.scheduled >= diffBudget {
			return
		}
		d.armStep(c)
	}
}

func (d *diffRunner) OnTimer(arg TimerArg) { d.fire(int(arg.N)) }

// modelSim is the executable specification of Sim's clock and ordering:
// an unordered list of pending (time, sequence) entries, the earliest
// found by linear scan.
type modelSim struct {
	now     Time
	seq     uint64
	pending []modelEvent
}

type modelEvent struct {
	at  Time
	seq uint64
	id  int
}

func (m *modelSim) schedule(d Time, id int) {
	m.seq++
	m.pending = append(m.pending, modelEvent{at: m.now + d, seq: m.seq, id: id})
}

// modelForever as a deadline runs the queue dry and, like Sim.Run, leaves
// the clock at the last event.
const modelForever = Time(1<<62 - 1)

func (m *modelSim) runUntil(deadline Time, fire func(id int)) int {
	n := 0
	for len(m.pending) > 0 {
		first := 0
		for i, e := range m.pending {
			if b := m.pending[first]; e.at < b.at || e.at == b.at && e.seq < b.seq {
				first = i
			}
		}
		e := m.pending[first]
		if e.at > deadline {
			break
		}
		m.pending = slices.Delete(m.pending, first, first+1)
		m.now = e.at
		fire(e.id)
		n++
	}
	if m.now < deadline && deadline != modelForever {
		m.now = deadline
	}
	return n
}

// diffResult is everything the two engines must agree on.
type diffResult struct {
	log     []string
	events  []int // per phase
	pending []int // per phase, before running it
	clock   []Time
}

func simEngine(d *diffRunner) diffEngine {
	sim := New(7)
	return diffEngine{
		now:     sim.Now,
		pending: sim.Pending,
		arm:     func(delay Time, id int) { sim.ScheduleTimer(delay, d, TimerArg{N: int64(id)}) },
		run: func(until Time) int {
			if until < 0 {
				return sim.Run()
			}
			return sim.RunUntil(until)
		},
	}
}

func modelEngine(d *diffRunner) diffEngine {
	m := &modelSim{}
	return diffEngine{
		now:     func() Time { return m.now },
		pending: func() int { return len(m.pending) },
		arm:     m.schedule,
		run: func(until Time) int {
			if until < 0 {
				until = modelForever
			}
			return m.runUntil(until, d.fire)
		},
	}
}

// run plays the case on the engine mk builds.
func (c *diffCase) run(mk func(*diffRunner) diffEngine) diffResult {
	d := &diffRunner{script: c.script}
	d.on = mk(d)
	var r diffResult
	for _, ph := range c.phases {
		for _, root := range ph.roots {
			d.armStep(root)
		}
		r.pending = append(r.pending, d.on.pending())
		r.events = append(r.events, d.on.run(ph.until))
		r.clock = append(r.clock, d.on.now())
	}
	r.log = d.log
	return r
}

// diffDelays is the delay palette of the random cases: same-instant ties,
// nanosecond neighbours, and horizons from microseconds to hours, so
// shallow and deep, dense and sparse queues all occur.
var diffDelays = []Time{
	0, 0, 0, // same-instant FIFO ties
	1, 1000,
	65536, 65537,
	90 * time.Microsecond,
	3 * time.Millisecond,
	700 * time.Millisecond, 2 * time.Second,
	40 * time.Second, 9 * time.Minute,
	25 * time.Minute, 3 * time.Hour,
}

// randomCase builds a random workload: each step fires after a palette
// delay and schedules up to three later steps; RunUntil slices the run at
// random deadlines, and more roots are armed after each clock advance.
func randomCase(seed int64) diffCase {
	rng := rand.New(rand.NewSource(seed))
	const n = 80
	script := make([]diffStep, n)
	for i := range script {
		script[i].delay = diffDelays[rng.Intn(len(diffDelays))]
		for k := rng.Intn(4); k > 0 && i+1 < n; k-- {
			script[i].children = append(script[i].children, i+1+rng.Intn(n-i-1))
		}
	}
	roots := make([]int, 1+rng.Intn(6))
	for i := range roots {
		roots[i] = rng.Intn(n)
	}
	c := diffCase{name: fmt.Sprintf("random-%d", seed), script: script}
	deadline := Time(0)
	for i, cuts := 0, 1+rng.Intn(5); i < cuts; i++ {
		deadline += diffDelays[rng.Intn(len(diffDelays))] + Time(rng.Intn(1000))
		ph := diffPhase{until: deadline}
		if i == 0 {
			ph.roots = roots
		} else {
			ph.roots = []int{roots[(i-1)%len(roots)]}
		}
		c.phases = append(c.phases, ph)
	}
	c.phases = append(c.phases, diffPhase{roots: []int{roots[len(c.phases)%len(roots)]}, until: -1})
	return c
}

// namedCases are the regimes that once needed their own machinery (a far
// horizon, a big same-instant burst, scheduling after a bare clock
// advance, a long self-rearming chain) with their expected logs spelled
// out.
func namedCases() []diffCase {
	burst := diffCase{name: "burst-FIFO", phases: []diffPhase{{until: -1}}}
	for i := 0; i < 4096; i++ {
		burst.script = append(burst.script, diffStep{delay: time.Second})
		burst.phases[0].roots = append(burst.phases[0].roots, i)
		burst.want = append(burst.want, fmt.Sprintf("%d@%d", i, time.Second))
	}
	chain := diffCase{name: "self-rearming-chain", phases: []diffPhase{{roots: []int{0}, until: -1}}}
	const links, step = 300, 17 * time.Millisecond
	for i := 0; i <= links; i++ {
		st := diffStep{delay: step}
		if i < links {
			st.children = []int{i + 1}
		}
		chain.script = append(chain.script, st)
		chain.want = append(chain.want, fmt.Sprintf("%d@%d", i, Time(i+1)*step))
	}
	return []diffCase{
		{
			name:   "far-horizon",
			script: []diffStep{{delay: time.Millisecond}, {delay: 30 * time.Minute}, {delay: 5 * time.Hour}, {delay: 5 * time.Hour}},
			phases: []diffPhase{{roots: []int{2, 1, 0, 3}, until: -1}},
			want: []string{
				fmt.Sprintf("0@%d", time.Millisecond), fmt.Sprintf("1@%d", 30*time.Minute),
				fmt.Sprintf("2@%d", 5*time.Hour), fmt.Sprintf("3@%d", 5*time.Hour), // same instant: arming order
			},
		},
		burst,
		{
			// RunUntil advances the clock past nothing; what is armed next
			// is relative to the advanced clock and earlier than what waits.
			name:   "schedule-after-deadline-advance",
			script: []diffStep{{delay: 20 * time.Minute}, {delay: time.Millisecond}, {delay: 3 * time.Minute}},
			phases: []diffPhase{{roots: []int{0}, until: 10 * time.Minute}, {roots: []int{1, 2}, until: -1}},
			want: []string{
				fmt.Sprintf("1@%d", 10*time.Minute+time.Millisecond), fmt.Sprintf("2@%d", 13*time.Minute),
				fmt.Sprintf("0@%d", 20*time.Minute),
			},
		},
		chain,
	}
}

// TestSimOrderMatchesModel is the ordering guarantee: on the named
// regimes and on random workloads, Sim and the model execute the same
// events in the same order at the same times, report the same counts from
// every RunUntil slice, and leave the clock in the same place.
func TestSimOrderMatchesModel(t *testing.T) {
	cases := namedCases()
	for seed := int64(1); seed <= 40; seed++ {
		cases = append(cases, randomCase(seed))
	}
	for _, c := range cases {
		got, model := c.run(simEngine), c.run(modelEngine)
		if c.want != nil && !slices.Equal(model.log, c.want) {
			t.Errorf("%s: model log = %v, want %v", c.name, model.log, c.want)
		}
		if !slices.Equal(got.pending, model.pending) {
			t.Errorf("%s: Pending per phase = %v, model %v", c.name, got.pending, model.pending)
		}
		if !slices.Equal(got.events, model.events) {
			t.Errorf("%s: events per phase = %v, model %v", c.name, got.events, model.events)
		}
		if !slices.Equal(got.clock, model.clock) {
			t.Errorf("%s: clock after each phase = %v, model %v", c.name, got.clock, model.clock)
		}
		if len(got.log) != len(model.log) {
			t.Errorf("%s: fired %d events, model %d", c.name, len(got.log), len(model.log))
			continue
		}
		for i := range got.log {
			if got.log[i] != model.log[i] {
				t.Errorf("%s: execution order diverged at %d: sim=%s model=%s", c.name, i, got.log[i], model.log[i])
				break
			}
		}
	}
}
