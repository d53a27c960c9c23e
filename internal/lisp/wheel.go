package lisp

import (
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// TimingWheel batches TTL expirations into coarse virtual-time buckets so
// a cache retires dead entries in O(1) amortized work per entry — one
// simulator event per occupied bucket instead of one per entry, and no
// reliance on a later Lookup happening to trip over the corpse. This is
// what makes MapCache.Len() and the expiry statistics honest: an entry
// leaves the cache within one bucket granularity of its TTL even if
// nothing ever looks it up again.
//
// Keys may be registered multiple times (TTL refreshes simply add the key
// to a later bucket); the flush callback is responsible for checking
// whether a key is actually expired before acting, so stale registrations
// are harmless.
type TimingWheel[K comparable] struct {
	rt          runtime.Runtime
	granularity runtime.Time
	buckets     map[int64][]K
	flush       func(keys []K)
}

// NewTimingWheel builds a wheel; flush receives each bucket's keys when
// its deadline passes. granularity must be positive.
func NewTimingWheel[K comparable](rt runtime.Runtime, granularity runtime.Time, flush func(keys []K)) *TimingWheel[K] {
	if granularity <= 0 {
		panic("lisp: non-positive timing-wheel granularity")
	}
	return &TimingWheel[K]{
		rt:          rt,
		granularity: granularity,
		buckets:     make(map[int64][]K),
		flush:       flush,
	}
}

// Add registers key k to be flushed at (or one granularity after) the
// absolute virtual time expires. Non-positive expiry means "never".
func (w *TimingWheel[K]) Add(k K, expires runtime.Time) {
	if expires <= 0 {
		return
	}
	b := int64((expires + w.granularity - 1) / w.granularity) // ceil: never early
	if keys, ok := w.buckets[b]; ok {
		w.buckets[b] = append(keys, k)
		return
	}
	w.buckets[b] = []K{k}
	w.rt.TimerAt(runtime.Time(b)*w.granularity, w, runtime.TimerArg{N: b})
}

// OnTimer flushes the bucket named by arg.N when its deadline passes.
func (w *TimingWheel[K]) OnTimer(arg runtime.TimerArg) {
	keys := w.buckets[arg.N]
	delete(w.buckets, arg.N)
	if len(keys) > 0 {
		w.flush(keys)
	}
}

// PendingBuckets returns the number of scheduled, unflushed buckets.
func (w *TimingWheel[K]) PendingBuckets() int { return len(w.buckets) }
