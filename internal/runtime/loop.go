package runtime

import (
	"math/rand"
	"sync"
	"time"

	"github.com/pcelisp/pcelisp/internal/obs"
)

// Loop is the real-time Runtime implementation: a single goroutine that
// serializes timer callbacks and posted thunks, backed by the wall clock
// and one reusable time.Timer. It mirrors the simulator's execution
// model — at most one protocol callback runs at a time, timers fire in
// (deadline, arming order) — so protocol code written for the sim needs
// no extra locking to run here.
//
// There is one posted queue, swapped out whole once per loop turn, so
// whatever is posted — a received frame, an admin probe — runs in posting
// order. Post itself never allocates; a caller on a hot path posts a func
// value it made once (the overlay host's frame buffers each carry their
// own bound method), not a fresh closure.
//
// ScheduleTimer/TimerAt/Post are safe to call from any goroutine (unlike
// the sim, whose callers are already inside the event loop); everything
// they queue runs on the loop goroutine.
type Loop struct {
	start time.Time

	mu       sync.Mutex
	rng      *rand.Rand
	posted   []func()
	postedAt Time // when posted last went from empty to non-empty; kept only with met
	timers   Queue[loopTimer]
	seq      uint64
	running  bool
	stopped  bool
	wake     chan struct{}
	done     chan struct{}

	met *loopMetrics // nil until RegisterMetrics: an unobserved loop reads no extra clock
}

// loopTimer is one armed timer. Its (deadline, arming sequence) key lives
// in the queue — the same FIFO contract the sim preserves.
type loopTimer struct {
	h   TimerHandler
	arg TimerArg
}

// loopMetrics is the loop's own health, the pcelisp_loop_* series.
type loopMetrics struct {
	LagSeconds   obs.Histogram `metric:"lag_seconds" help:"Wait of the oldest posted entry when the loop picked its batch up, one sample per non-empty batch."`
	BatchSeconds obs.Histogram `metric:"batch_seconds" help:"Time one loop turn took to run its handlers (posted batch plus due timers)."`
	PostedDepth  obs.Gauge     `metric:"posted_depth" help:"Posted entries the loop picked up at its last turn."`
	Timers       obs.Gauge     `metric:"timers" help:"Armed timers left in the queue at the loop's last turn."`
}

// loopBounds buckets both loop histograms: 10 µs to 1 s.
var loopBounds = []float64{1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1}

// NewLoop creates a stopped loop whose clock starts at zero now and whose
// random stream is seeded deterministically.
func NewLoop(seed int64) *Loop {
	return &Loop{
		start: time.Now(),
		rng:   rand.New(rand.NewSource(seed)),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
}

// RegisterMetrics publishes the loop's health on r under pcelisp_loop_*.
// Call before Start. It costs an observed loop one clock read per batch,
// on the posting side, when an entry lands in an empty queue — none per
// entry, and none in the loop beyond the one each turn takes anyway; with
// a nil registry the loop stays unobserved.
func (l *Loop) RegisterMetrics(r *obs.Registry, labels ...obs.Label) {
	m := &loopMetrics{}
	m.LagSeconds.Init(loopBounds)
	m.BatchSeconds.Init(loopBounds)
	r.RegisterSet("pcelisp_loop_", m, labels...)
	if r != nil {
		l.met = m
	}
}

// Now returns the time elapsed since the loop was created.
func (l *Loop) Now() Time { return time.Since(l.start) }

// Rand returns the loop's seeded random stream. Draws are serialized by
// the loop goroutine in normal operation; the loop does not add locking.
func (l *Loop) Rand() Rand { return l.rng }

// ScheduleTimer arms h.OnTimer(arg) to fire after delay d on the loop
// goroutine.
func (l *Loop) ScheduleTimer(d Time, h TimerHandler, arg TimerArg) {
	if d < 0 {
		d = 0
	}
	l.TimerAt(l.Now()+d, h, arg)
}

// TimerAt arms h.OnTimer(arg) to fire at absolute loop time t. Like Post,
// it is a no-op once the loop has stopped: nothing would ever drain it.
func (l *Loop) TimerAt(t Time, h TimerHandler, arg TimerArg) {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.seq++
	l.timers.Push(t, l.seq, &loopTimer{h: h, arg: arg})
	l.mu.Unlock()
	l.poke()
}

// Post enqueues fn to run on the loop goroutine, after anything already
// queued. It is the bridge from reader goroutines (UDP sockets, signal
// handlers) into the serialized protocol context.
func (l *Loop) Post(fn func()) {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	if l.met != nil && len(l.posted) == 0 {
		l.postedAt = l.Now()
	}
	l.posted = append(l.posted, fn)
	l.mu.Unlock()
	l.poke()
}

func (l *Loop) poke() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Start launches the loop goroutine. It may be called once.
func (l *Loop) Start() {
	l.mu.Lock()
	if l.running || l.stopped {
		l.mu.Unlock()
		return
	}
	l.running = true
	l.mu.Unlock()
	go l.run()
}

// Stop halts the loop and waits for the loop goroutine to exit. Pending
// thunks and timers are discarded.
func (l *Loop) Stop() {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.stopped = true
	wasRunning := l.running
	l.mu.Unlock()
	l.poke()
	if wasRunning {
		<-l.done
	}
}

func (l *Loop) run() {
	defer close(l.done)
	idle := time.NewTimer(time.Hour)
	defer idle.Stop()
	var batch []func()
	var due []loopTimer
	var ranAt Time = -1 // when the previous turn picked its work up, if it ran any
	for {
		l.mu.Lock()
		if l.stopped {
			l.mu.Unlock()
			return
		}
		// Drain posted thunks first: they carry packet arrivals, which in
		// the sim likewise sort ahead of later-armed timers.
		batch, l.posted = l.posted, batch[:0]
		now := l.Now()
		due = due[:0]
		var next Time = -1
		for {
			at, t := l.timers.Peek()
			if t == nil {
				break
			}
			if at > now {
				next = at
				break
			}
			due = append(due, *t)
			l.timers.Pop()
		}
		lag, armed := now-l.postedAt, l.timers.Len()
		l.mu.Unlock()

		ran := len(batch) > 0 || len(due) > 0
		if l.met != nil {
			// A turn that ran work is always followed by another, whose
			// clock read doubles as the end of the first.
			if ranAt >= 0 {
				l.met.BatchSeconds.Observe((now - ranAt).Seconds())
			}
			if len(batch) > 0 {
				l.met.LagSeconds.Observe(lag.Seconds())
			}
			l.met.PostedDepth.Set(int64(len(batch)))
			l.met.Timers.Set(int64(armed))
			ranAt = -1
			if ran {
				ranAt = now
			}
		}
		for _, fn := range batch {
			fn()
		}
		for i := range due {
			due[i].h.OnTimer(due[i].arg)
		}
		// Both slices are recycled; zero what just ran so a burst's closures
		// (each pinning a received frame) and timer payloads are collectable
		// now rather than when an equally large burst overwrites them.
		clear(batch)
		clear(due)
		if ran {
			continue // running work may have queued more
		}

		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		if next >= 0 {
			d := next - l.Now()
			if d < 0 {
				d = 0
			}
			idle.Reset(d)
		} else {
			idle.Reset(time.Hour)
		}
		select {
		case <-l.wake:
		case <-idle.C:
		}
	}
}

var _ Runtime = (*Loop)(nil)
