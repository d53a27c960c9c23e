package runtime

import (
	"reflect"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/obs"
)

// orderLog records the order callbacks ran in. Callbacks all run on the
// loop goroutine; the mutex only orders them against the test's read.
type orderLog struct {
	mu  sync.Mutex
	got []string
}

func (o *orderLog) add(s string) {
	o.mu.Lock()
	o.got = append(o.got, s)
	o.mu.Unlock()
}

func (o *orderLog) snapshot() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.got...)
}

// OnTimer logs arg.S and, when arg.P carries a func, runs it — so a test
// can act from inside a timer callback.
func (o *orderLog) OnTimer(arg TimerArg) {
	o.add(arg.S)
	if fn, ok := arg.P.(func()); ok {
		fn()
	}
}

// waitFor fails the test if ch is not closed within a generous bound.
func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func TestLoopTimersFireInDeadlineThenArmingOrder(t *testing.T) {
	l := NewLoop(1)
	defer l.Stop()
	var log orderLog
	done := make(chan struct{})
	// Armed out of deadline order, with ties; all are in the past by the
	// time the loop starts, so one drain pops them all through the heap.
	l.TimerAt(3, &log, TimerArg{S: "c1"})
	l.TimerAt(1, &log, TimerArg{S: "a1"})
	l.TimerAt(2, &log, TimerArg{S: "b1"})
	l.TimerAt(1, &log, TimerArg{S: "a2"})
	l.TimerAt(3, &log, TimerArg{S: "c2"})
	l.TimerAt(2, &log, TimerArg{S: "b2"})
	l.TimerAt(1, &log, TimerArg{S: "a3"})
	l.TimerAt(4, &log, TimerArg{S: "end", P: func() { close(done) }})
	l.Start()
	waitFor(t, done, "the last timer")
	want := []string{"a1", "a2", "a3", "b1", "b2", "c1", "c2", "end"}
	if got := log.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("timer order = %v, want %v", got, want)
	}
}

func TestLoopFutureTimerWaitsForDeadline(t *testing.T) {
	l := NewLoop(1)
	defer l.Stop()
	l.Start()
	var log orderLog
	done := make(chan struct{})
	const delay = 20 * time.Millisecond
	armed := l.Now()
	var fired Time
	l.ScheduleTimer(delay, &log, TimerArg{S: "t", P: func() { fired = l.Now(); close(done) }})
	waitFor(t, done, "the delayed timer")
	if fired-armed < delay {
		t.Fatalf("timer fired %v after arming, before its %v deadline", fired-armed, delay)
	}
}

func TestLoopPostedRunBeforeLaterTimersInFIFOOrder(t *testing.T) {
	l := NewLoop(1)
	defer l.Stop()
	var log orderLog
	done := make(chan struct{})
	l.Post(func() { log.add("p1") })
	l.Post(func() { log.add("p2") })
	// Already due when the loop starts, but armed after the posts.
	l.TimerAt(0, &log, TimerArg{S: "t", P: func() { close(done) }})
	l.Post(func() { log.add("p3") })
	l.Start()
	waitFor(t, done, "the timer")
	want := []string{"p1", "p2", "p3", "t"}
	if got := log.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("run order = %v, want %v", got, want)
	}
}

// TestLoopPostZeroAlloc: posting a func value that already exists — a
// bound method kept in a pooled object, as the overlay host's frames do —
// allocates nothing, even on an observed loop.
func TestLoopPostZeroAlloc(t *testing.T) {
	l := NewLoop(1)
	defer l.Stop()
	l.RegisterMetrics(obs.NewRegistry())
	l.Start()
	done := make(chan struct{}, 1)
	nop, signal := func() {}, func() { done <- struct{}{} }
	bound := (&pinned{new([1500]byte)}).touch
	burst := func() {
		for i := 0; i < 16; i++ {
			l.Post(nop)
			l.Post(bound)
		}
		l.Post(signal)
		<-done
	}
	burst() // size the queues
	if got := testing.AllocsPerRun(200, burst); got != 0 {
		t.Fatalf("a burst of posts allocates %v, want 0", got)
	}
}

// TestLoopMetrics: an observed loop reports each batch's lag and handler
// time and the depth it picked up.
func TestLoopMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLoop(1)
	defer l.Stop()
	l.RegisterMetrics(reg, obs.Label{Key: "node", Value: "n"})
	const stall = 20 * time.Millisecond
	done := make(chan struct{})
	// Three entries queued before Start make one batch; the first stalls.
	l.Post(func() { time.Sleep(stall) })
	l.Post(func() {})
	l.Post(func() { close(done) })
	time.Sleep(stall) // the batch has waited at least this long when picked up
	l.Start()
	waitFor(t, done, "the batch")
	next := make(chan struct{})
	l.Post(func() { close(next) }) // a later turn: the first batch's samples are in
	waitFor(t, next, "the follow-up turn")
	if n := l.met.LagSeconds.Count(); n < 1 {
		t.Fatalf("lag samples = %d, want one per non-empty batch", n)
	}
	if sum := l.met.LagSeconds.Sum(); sum < stall.Seconds() {
		t.Fatalf("lag sum = %vs, want at least the %v the first batch waited", sum, stall)
	}
	if sum := l.met.BatchSeconds.Sum(); sum < stall.Seconds() {
		t.Fatalf("batch time sum = %vs, want at least the %v stall", sum, stall)
	}
	for _, name := range []string{"pcelisp_loop_posted_depth", "pcelisp_loop_timers"} {
		if _, ok := reg.Value(name, obs.Label{Key: "node", Value: "n"}); !ok {
			t.Fatalf("%s not registered", name)
		}
	}
	if l2 := NewLoop(1); l2.met != nil {
		t.Fatal("an unregistered loop carries metrics")
	}
}

func TestLoopCallbacksMayArmAndPost(t *testing.T) {
	l := NewLoop(1)
	defer l.Stop()
	l.Start()
	var log orderLog
	done := make(chan struct{})
	// A timer callback posts a thunk, which arms a timer, which posts the
	// thunk that ends the test: every hop re-enters the loop's own API
	// from the loop goroutine.
	l.ScheduleTimer(0, &log, TimerArg{S: "t1", P: func() {
		l.Post(func() {
			log.add("p1")
			l.ScheduleTimer(time.Millisecond, &log, TimerArg{S: "t2", P: func() {
				l.Post(func() { log.add("p2"); close(done) })
			}})
		})
	}})
	waitFor(t, done, "the callback chain")
	want := []string{"t1", "p1", "t2", "p2"}
	if got := log.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("run order = %v, want %v", got, want)
	}
}

func TestLoopConcurrentPostsAllRun(t *testing.T) {
	l := NewLoop(1)
	defer l.Stop()
	l.Start()
	const posters, each = 8, 200
	var ran atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Post(func() { ran.Add(1) })
			}
		}()
	}
	wg.Wait()
	done := make(chan struct{})
	l.Post(func() { close(done) }) // FIFO: runs after everything above
	waitFor(t, done, "the posted thunks")
	if got := ran.Load(); got != posters*each {
		t.Fatalf("ran %d thunks, want %d", got, posters*each)
	}
}

func TestLoopStopBeforeStartDoesNotHang(t *testing.T) {
	l := NewLoop(1)
	stopped := make(chan struct{})
	go func() { l.Stop(); close(stopped) }()
	waitFor(t, stopped, "Stop on a never-started loop")
	l.Start() // a stopped loop must not come back
	l.mu.Lock()
	running := l.running
	l.mu.Unlock()
	if running {
		t.Fatal("Start after Stop launched the loop goroutine")
	}
}

func TestLoopPostAfterStopIsNoop(t *testing.T) {
	l := NewLoop(1)
	l.Start()
	done := make(chan struct{})
	l.Post(func() { close(done) })
	waitFor(t, done, "the loop to run")
	l.Stop()
	l.Stop() // idempotent
	var ran atomic.Bool
	l.Post(func() { ran.Store(true) })
	l.mu.Lock()
	queued := len(l.posted)
	l.mu.Unlock()
	if queued != 0 || ran.Load() {
		t.Fatalf("Post after Stop queued %d thunks (ran=%v), want none", queued, ran.Load())
	}
}

// TestLoopTimerAfterStopIsNoop: a reader goroutine or late callback that
// arms a timer during shutdown used to push onto a queue nobody would
// ever drain. Both arming calls must drop it, as Post does.
func TestLoopTimerAfterStopIsNoop(t *testing.T) {
	l := NewLoop(1)
	l.Start()
	var log orderLog
	done := make(chan struct{})
	l.TimerAt(0, &log, TimerArg{S: "before", P: func() { close(done) }})
	waitFor(t, done, "the loop to run")
	l.Stop()
	l.TimerAt(0, &log, TimerArg{S: "late-at"})
	l.ScheduleTimer(time.Hour, &log, TimerArg{S: "late-after"})
	l.mu.Lock()
	queued := l.timers.Len()
	l.mu.Unlock()
	if got := log.snapshot(); queued != 0 || len(got) != 1 {
		t.Fatalf("timers armed after Stop: %d queued, fired %v; want none queued and only %q fired", queued, got, "before")
	}
}

// pinned stands in for a pooled frame: touch is the method it posts.
type pinned struct{ p *[1500]byte }

func (e *pinned) touch() { e.p[0]++ }

// TestLoopReleasesRunWork is the retention regression: the loop recycles
// its drained thunk slice and its due-timer slice, and used to leave the
// closures and timer payloads of the largest burst so far reachable from
// the recycled backing arrays until an equally large burst overwrote
// them. Each closure pins a received frame in the daemon.
func TestLoopReleasesRunWork(t *testing.T) {
	l := NewLoop(1)
	defer l.Stop()
	const burst = 64
	var freed atomic.Int64
	var log orderLog
	for i := 0; i < burst; i++ {
		frame := new([1500]byte)
		goruntime.SetFinalizer(frame, func(*[1500]byte) { freed.Add(1) })
		l.Post(func() { frame[0]++ })
		payload := new([1500]byte)
		goruntime.SetFinalizer(payload, func(*[1500]byte) { freed.Add(1) })
		l.TimerAt(0, &log, TimerArg{P: payload})
	}
	// Queued before Start, so the whole burst lands in one drain.
	l.Start()
	// Two more single-item rounds: each recycled slice gets reused, which
	// overwrites slot 0 only.
	for round := 0; round < 2; round++ {
		done := make(chan struct{})
		l.Post(func() { close(done) })
		waitFor(t, done, "a follow-up thunk")
	}
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < 2*burst && time.Now().Before(deadline) {
		goruntime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got < 2*burst {
		t.Fatalf("only %d of %d burst payloads were collectable after running: the loop still references the rest", got, 2*burst)
	}
}
