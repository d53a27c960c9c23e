package lisp

import (
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// SourceQuota is a per-source request rate limiter used by resolution
// infrastructure (Map-Resolvers, the PCE's MapFetch handler) to shield
// bounded service queues from flooding sources: each source address may
// consume at most Limit requests per one-second window of simulation
// time. Windows are derived from the deterministic clock, so the quota
// never introduces ordering nondeterminism, and the per-window counters
// reset lazily on the first request of a new window.
type SourceQuota struct {
	// Limit is the allowed requests per source per second (<=0 disables
	// the quota — every request passes).
	Limit int

	win    runtime.Time
	counts map[netaddr.Addr]int

	// Drops counts requests rejected over quota.
	Drops uint64
}

// Allow reports whether a request from src at the given time fits the
// quota, consuming one slot when it does.
func (q *SourceQuota) Allow(now runtime.Time, src netaddr.Addr) bool {
	if q.Limit <= 0 {
		return true
	}
	w := now / runtime.Time(time.Second)
	if w != q.win || q.counts == nil {
		q.win = w
		if q.counts == nil {
			q.counts = make(map[netaddr.Addr]int)
		} else {
			clear(q.counts)
		}
	}
	if q.counts[src] >= q.Limit {
		q.Drops++
		return false
	}
	q.counts[src]++
	return true
}
