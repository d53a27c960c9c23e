package simnet

import (
	"testing"
	"time"
)

// hotTimer is the steady-state benchmark workload: one typed timer that
// keeps rescheduling itself a tick ahead, the shape of every protocol
// timer and generator in the simulator.
type hotTimer struct {
	s    *Sim
	step Time
	left int
}

func (h *hotTimer) OnTimer(TimerArg) {
	if h.left > 0 {
		h.left--
		h.s.ScheduleTimer(h.step, h, TimerArg{})
	}
}

// BenchmarkSchedulerHot measures the closure-free steady state: one
// event scheduled, popped and dispatched per op. This must report
// 0 allocs/op — the acceptance bar for the typed-event core.
func BenchmarkSchedulerHot(b *testing.B) {
	s := New(1)
	h := &hotTimer{s: s, step: time.Microsecond, left: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	s.ScheduleTimer(0, h, TimerArg{})
	s.Run()
}

// deepTimer is one of many timers that each re-arm themselves at a
// pseudo-random horizon, holding the queue at a constant depth.
type deepTimer struct {
	s    *Sim
	rng  uint64
	left *int
}

func (d *deepTimer) OnTimer(TimerArg) {
	*d.left--
	if *d.left <= 0 {
		d.s.Stop()
		return
	}
	d.rng ^= d.rng << 13
	d.rng ^= d.rng >> 7
	d.rng ^= d.rng << 17
	d.s.ScheduleTimer(Time(d.rng%uint64(time.Second)), d, TimerArg{})
}

// BenchmarkSchedulerDeep measures one pop and one re-arm per op against
// 100 000 pending timers: the deep-queue regime of full-scale E12, where
// each sift walks up to 17 levels and what a queue entry costs to move
// decides the result (a heap of whole events ran E12 14 % slower than the
// key heap).
func BenchmarkSchedulerDeep(b *testing.B) {
	const depth = 100_000
	s := New(1)
	left := b.N
	timers := make([]deepTimer, depth)
	for i := range timers {
		timers[i] = deepTimer{s: s, rng: uint64(i)*0x9E3779B97F4A7C15 + 1, left: &left}
		s.ScheduleTimer(Time(timers[i].rng%uint64(time.Second)), &timers[i], TimerArg{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// mixedTimer reschedules itself with a rotating mix of horizons, from
// the same instant to half an hour out.
type mixedTimer struct {
	s    *Sim
	i    int
	left int
}

var mixedHorizons = []Time{
	0,
	30 * time.Microsecond,
	2 * time.Millisecond,
	300 * time.Millisecond,
	50 * time.Second,
	30 * time.Minute,
}

func (m *mixedTimer) OnTimer(TimerArg) {
	if m.left > 0 {
		m.left--
		m.i++
		m.s.ScheduleTimer(mixedHorizons[m.i%len(mixedHorizons)], m, TimerArg{})
	}
}

// BenchmarkSchedulerMixedHorizon measures a timer whose every re-arm
// lands at a different horizon, so the virtual clock jumps by up to half
// an hour per op.
func BenchmarkSchedulerMixedHorizon(b *testing.B) {
	s := New(1)
	m := &mixedTimer{s: s, left: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	s.ScheduleTimer(0, m, TimerArg{})
	s.Run()
}

// cancelTimer models the simulator's disarm idiom (the resolver, TCP and
// requester retry timers): most armed timers are superseded before they
// fire and must be recognized as stale by their generation.
type cancelTimer struct {
	s    *Sim
	gen  int64
	left int
}

func (c *cancelTimer) OnTimer(arg TimerArg) {
	if arg.N != c.gen {
		return // cancelled: superseded before firing
	}
	if c.left <= 0 {
		return
	}
	// Arm four timers; bumping gen immediately cancels the first three.
	for i := 0; i < 4 && c.left > 0; i++ {
		c.left--
		c.gen++
		c.s.ScheduleTimer(Time(i+1)*50*time.Microsecond, c, TimerArg{N: c.gen})
	}
}

// BenchmarkSchedulerCancelHeavy measures the generation-disarm pattern
// under churn: 3 of every 4 scheduled timers fire stale and do nothing.
func BenchmarkSchedulerCancelHeavy(b *testing.B) {
	s := New(1)
	c := &cancelTimer{s: s, left: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	s.ScheduleTimer(0, c, TimerArg{N: 0})
	s.Run()
}

// BenchmarkSchedulerFuncShim measures the ScheduleFunc compatibility
// path, whose per-event closure allocation is the cost the typed core
// removed.
func BenchmarkSchedulerFuncShim(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	var step func()
	step = func() {
		if n < b.N {
			n++
			s.ScheduleFunc(time.Microsecond, step)
		}
	}
	s.ScheduleFunc(0, step)
	s.Run()
}

// TestSchedulerHotPathZeroAlloc pins the acceptance criterion outside
// the bench harness: steady-state typed scheduling performs zero
// allocations per event.
func TestSchedulerHotPathZeroAlloc(t *testing.T) {
	s := New(1)
	h := &hotTimer{s: s, step: time.Microsecond}
	// Warm up the queue's capacity.
	h.left = 10000
	s.ScheduleTimer(0, h, TimerArg{})
	s.Run()
	per := testing.AllocsPerRun(200, func() {
		h.left = 50
		s.ScheduleTimer(0, h, TimerArg{})
		s.Run()
	})
	if per != 0 {
		t.Fatalf("steady-state scheduling allocates %.1f per 51-event run, want 0", per)
	}
}
