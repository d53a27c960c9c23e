package main

import (
	"math/bits"
	"slices"
)

// hist is a fixed-size log-linear latency histogram over nanosecond
// values: exact below 2^histSubBits, then histSub linear sub-buckets per
// power of two, so a reported quantile is within 1/histSub (0.78 %) of a
// sample that fell in the same bucket. It never allocates after
// construction — the harness shares a heap with the daemons it measures,
// and a growing sample slice would change their GC pacing.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	max    uint64
	// first keeps the first histExact samples as they are: a window with
	// a handful of ops (sim_suite passes, sim_setup rounds) gets exact
	// quantiles instead of bucket midpoints.
	first [histExact]int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histMaxExp bounds the range at 2^(histSubBits+histMaxExp) ns ≈ 37
	// minutes; larger values clamp into the last bucket.
	histMaxExp  = 34
	histBuckets = histSub * (histMaxExp + 1)
	histExact   = 256
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - histSubBits - 1 // v>>exp lies in [histSub, 2*histSub)
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	return histSub*exp + int(v>>uint(exp))
}

// histBounds returns the value range [lo, lo+width) bucket i covers.
func histBounds(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	exp := i/histSub - 1
	return float64(uint64(i-histSub*exp) << uint(exp)), float64(uint64(1) << uint(exp))
}

func (h *hist) add(ns int64) {
	v := uint64(0)
	if ns > 0 {
		v = uint64(ns)
	}
	h.counts[histIndex(v)]++
	if h.n < histExact {
		h.first[h.n] = int64(v)
	}
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the value at rank ceil(q*n) in nanoseconds (0 when
// empty), placing the rank linearly inside its bucket — so two runs whose
// medians share a bucket still report different numbers.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	rank = max(rank, 1)
	if h.n <= histExact {
		exact := h.first // a copy, sorted on the stack
		slices.Sort(exact[:h.n])
		return float64(exact[rank-1])
	}
	var seen uint64
	for i := range h.counts {
		c := uint64(h.counts[i])
		if seen+c >= rank {
			lo, width := histBounds(i)
			return min(lo+width*(float64(rank-seen)-0.5)/float64(c), float64(h.max))
		}
		seen += c
	}
	return float64(h.max)
}

// tailPercentiles are the candidates for "the highest percentile with at
// least ten samples beyond it".
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tail returns the highest candidate percentile that still has at least
// ten samples beyond it, and its value in nanoseconds. With fewer than
// twenty samples nothing qualifies and it falls back to the median.
func (h *hist) tail() (pct, ns float64) {
	pct = tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(h.n)*(100-p)/100 >= 10-1e-9 {
			pct = p
		}
	}
	return pct, h.quantile(pct / 100)
}
