package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run records spans around the harness's own calls into the
// system — the system itself is not instrumented yet (ROADMAP item 4).
// Spans go into an array sized before the window opens, so recording
// allocates nothing; when it fills, later spans are counted as dropped.

// spanID indexes tracer.spans; noSpan marks "not recorded" and a root.
type spanID int32

const noSpan spanID = -1

type spanRec struct {
	name   uint8
	parent spanID
	op     int64
	start  int64 // ns since tracer.origin
	end    int64
}

type tracer struct {
	origin  time.Time
	names   []string
	spans   []spanRec
	dropped int
}

// maxSpans bounds one run's trace (≈ 5 MB of JSON). High-rate workloads
// sample ops so the window fits; see realWorkload.traceEvery.
const maxSpans = 1 << 16

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]spanRec, 0, maxSpans)}
}

// Every method is a no-op on a nil tracer, so workloads record spans
// unconditionally and an untraced window pays one nil check per call.

// name interns a span name.
func (t *tracer) name(s string) uint8 {
	if t == nil {
		return 0
	}
	for i, n := range t.names {
		if n == s {
			return uint8(i)
		}
	}
	t.names = append(t.names, s)
	return uint8(len(t.names) - 1)
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// add records a finished span and returns its id.
func (t *tracer) add(name uint8, parent spanID, op, start, end int64) spanID {
	if t == nil {
		return noSpan
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return noSpan
	}
	t.spans = append(t.spans, spanRec{name: name, parent: parent, op: op, start: start, end: end})
	return spanID(len(t.spans) - 1)
}

// begin opens a span that end closes; for spans whose both edges the
// caller does not already hold as timestamps.
func (t *tracer) begin(name string, parent spanID, op int64) spanID {
	if t == nil {
		return noSpan
	}
	return t.add(t.name(name), parent, op, t.now(), 0)
}

func (t *tracer) end(id spanID) {
	if t != nil && id != noSpan {
		t.spans[id].end = t.now()
	}
}

// selfTimes returns, per span name, the count, total duration and self
// time: a span's duration minus the part of it its children cover.
// Children are clipped to the parent and merged, so overlapping children
// are not subtracted twice.
func (t *tracer) selfTimes() []spanTotals {
	type interval struct{ lo, hi int64 }
	children := make(map[spanID][]interval)
	for _, s := range t.spans {
		if s.parent != noSpan {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	totals := make([]spanTotals, len(t.names))
	for i := range totals {
		totals[i].Name = t.names[i]
	}
	for id, s := range t.spans {
		dur := s.end - s.start
		covered := int64(0)
		kids := children[spanID(id)]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		edge := s.start
		for _, k := range kids {
			lo, hi := max(k.lo, edge), min(k.hi, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		tt := &totals[s.name]
		tt.Count++
		tt.TotalNs += dur
		tt.SelfNs += dur - covered
	}
	return totals
}

type spanTotals struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// write dumps the trace as JSON: self times per name, then every span
// with name, start, end, parent index and op id.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"unit\":\"ns\",\"dropped\":%d,\"self_times\":[", t.dropped)
	for i, tt := range t.selfTimes() {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"count\":%d,\"total_ns\":%d,\"self_ns\":%d}", tt.Name, tt.Count, tt.TotalNs, tt.SelfNs)
	}
	w.WriteString("\n],\"spans\":[")
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"op\":%d}",
			i, t.names[s.name], s.start, s.end, s.parent, s.op)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
