package runtime

import (
	"math/rand"
	goruntime "runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// oracleEntry and oracleQueue are the naive specification the queue is
// checked against: an unsorted list, stably sorted by (at, seq) on every
// pop.
type oracleEntry struct {
	at  Time
	seq uint64
	v   int
}

type oracleQueue []oracleEntry

func (o *oracleQueue) push(at Time, seq uint64, v int) {
	*o = append(*o, oracleEntry{at, seq, v})
}

func (o *oracleQueue) pop() oracleEntry {
	q := *o
	sort.SliceStable(q, func(i, j int) bool {
		if q[i].at != q[j].at {
			return q[i].at < q[j].at
		}
		return q[i].seq < q[j].seq
	})
	top := q[0]
	*o = q[1:]
	return top
}

// TestQueueMatchesOracle drives random push/pop interleavings with heavy
// deadline ties through the queue and the oracle and demands the same
// (deadline, value) at every pop, through growth, full drains and slot
// reuse.
func TestQueueMatchesOracle(t *testing.T) {
	for trial := int64(1); trial <= 30; trial++ {
		rng := rand.New(rand.NewSource(trial))
		var q Queue[int]
		var o oracleQueue
		var seq uint64
		pushBias := 2 + rng.Intn(6) // out of 8: some trials drain often, some grow deep
		for step := 0; step < 2000; step++ {
			if q.Len() != len(o) {
				t.Fatalf("trial %d step %d: Len = %d, oracle holds %d", trial, step, q.Len(), len(o))
			}
			if len(o) == 0 || rng.Intn(8) < pushBias {
				seq++
				at, v := Time(rng.Intn(6)), rng.Int()
				q.Push(at, seq, &v)
				o.push(at, seq, v)
				continue
			}
			want := o.pop()
			at, v := q.Peek()
			if v == nil || at != want.at || *v != want.v {
				t.Fatalf("trial %d step %d: Peek = (%v, %v), oracle says (%v, %d)", trial, step, at, v, want.at, want.v)
			}
			q.Pop()
		}
		for len(o) > 0 {
			want := o.pop()
			if at, v := q.Peek(); v == nil || at != want.at || *v != want.v {
				t.Fatalf("trial %d drain: Peek = (%v, %v), oracle says (%v, %d)", trial, at, v, want.at, want.v)
			}
			q.Pop()
		}
		if at, v := q.Peek(); v != nil || at != 0 || q.Len() != 0 {
			t.Fatalf("trial %d: drained queue peeks (%v, %v), Len %d", trial, at, v, q.Len())
		}
	}
}

// TestQueuePushReusesPoppedSlot is the run loop's copy-out-then-pop
// pattern: the handler of the popped entry pushes while that entry's slot
// is the next one handed out. The copy must be unaffected, the new value
// must land intact, and the slab must not grow.
func TestQueuePushReusesPoppedSlot(t *testing.T) {
	type payload struct {
		name string
		n    [4]int64
	}
	var q Queue[payload]
	q.Push(1, 1, &payload{name: "first", n: [4]int64{1, 2, 3, 4}})
	q.Push(2, 2, &payload{name: "second"})
	slab := len(q.vals)

	_, p := q.Peek()
	got := *p
	q.Pop()
	q.Push(3, 3, &payload{name: "third", n: [4]int64{9, 9, 9, 9}})

	if want := (payload{name: "first", n: [4]int64{1, 2, 3, 4}}); got != want {
		t.Fatalf("copied-out value changed under the push: %+v", got)
	}
	if len(q.vals) != slab {
		t.Fatalf("slab grew from %d to %d: the popped slot was not reused", slab, len(q.vals))
	}
	for _, want := range []string{"second", "third"} {
		_, p := q.Peek()
		if p == nil || p.name != want {
			t.Fatalf("Peek = %+v, want %q", p, want)
		}
		if want == "third" && p.n != [4]int64{9, 9, 9, 9} {
			t.Fatalf("value pushed into the reused slot is damaged: %+v", *p)
		}
		q.Pop()
	}
}

// TestQueuePopReleasesValue: what a popped value referenced must be
// collectable at once, while the queue itself — and the slab slot — stay
// alive. Fails if Pop leaves the slot populated.
func TestQueuePopReleasesValue(t *testing.T) {
	var q Queue[loopTimer]
	var log orderLog
	const n = 32
	var freed atomic.Int64
	for i := 0; i < n; i++ {
		payload := new([1500]byte)
		goruntime.SetFinalizer(payload, func(*[1500]byte) { freed.Add(1) })
		q.Push(Time(i%3), uint64(i), &loopTimer{h: &log, arg: TimerArg{P: payload}})
	}
	q.Push(99, n, &loopTimer{h: &log}) // stays queued: the slab stays reachable
	for i := 0; i < n; i++ {
		q.Pop()
	}
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < n && time.Now().Before(deadline) {
		goruntime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got < n {
		t.Fatalf("only %d of %d popped payloads were collectable: Pop left the rest in the slab", got, n)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	goruntime.KeepAlive(&q)
}
