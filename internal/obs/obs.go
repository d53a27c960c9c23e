// Package obs is the runtime-agnostic observability core shared by the
// deterministic simulator and the real daemon: a zero-alloc metrics
// registry (atomically-updated counters, gauges and fixed-bucket
// histograms, pre-registered at construction so the hot path is a plain
// atomic add) and a control-plane flight recorder (a fixed ring of typed
// decision events stamped from the runtime clock).
//
// Counters are value types meant to be embedded in a component's metric
// set: incrementing one is an atomic add with no pointer chase and no
// allocation, whether or not a Registry is watching. Registration hands
// the Registry a pointer into the live struct, so scraping reads the
// same memory the hot path writes — there is no sampling step and no
// snapshot copy until exposition time.
//
// Everything is safe to read concurrently with writers: counters and
// histogram buckets are atomics, and the flight-recorder ring is
// mutex-guarded. Neither draws randomness nor consults wall-clock time,
// so enabling observability cannot perturb a deterministic simulation.
package obs

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; embed it by value so incrementing never allocates.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease) and returns the new
// value.
func (g *Gauge) Add(n int64) int64 { return g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histMaxBuckets bounds a histogram's bucket array so the whole
// histogram lives inline in its owner's struct.
const histMaxBuckets = 16

// Histogram is a fixed-bucket histogram. Init it once with its upper
// bounds (at most histMaxBuckets-1 of them; a +Inf bucket is implicit),
// then Observe values from any goroutine. The zero value counts
// observations into the implicit +Inf bucket until Init is called.
type Histogram struct {
	bounds  []float64 // immutable after Init; usually a shared package-level slice
	buckets [histMaxBuckets]atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// Init sets the bucket upper bounds. Bounds must be sorted ascending.
// Call before the histogram is shared; not safe concurrently with
// Observe.
func (h *Histogram) Init(bounds []float64) {
	if len(bounds) > histMaxBuckets-1 {
		panic(fmt.Sprintf("obs: histogram bounds %d exceed max %d", len(bounds), histMaxBuckets-1))
	}
	h.bounds = bounds
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bucket returns the cumulative count of observations <= the i-th bound
// (i == len(bounds) is the +Inf bucket, equal to Count).
func (h *Histogram) Bucket(i int) uint64 {
	var cum uint64
	for j := 0; j <= i && j < histMaxBuckets; j++ {
		cum += h.buckets[j].Load()
	}
	return cum
}

// Label is one name/value pair attached to a series.
type Label struct{ Key, Value string }

// kind discriminates series types for exposition.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// series is one registered time series: a metric pointer plus its
// identity (family name + label set).
type series struct {
	name   string
	labels []Label
	k      kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups series sharing a metric name.
type family struct {
	name   string
	help   string
	k      kind
	series []*series
}

// Registry indexes registered metrics for exposition and queries. A nil
// *Registry is valid: every method is a no-op (returning fresh,
// unregistered metrics where one is expected), so components register
// unconditionally and pay nothing when observability is off.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // family names in registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// seriesKey canonicalizes a label set for duplicate detection.
func seriesKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// sortLabels returns labels sorted by key (copying to leave the
// caller's slice alone).
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// register adds one series, panicking on a duplicate (same family name
// and label set) unless getOrCreate, in which case the existing series'
// metric is returned. Returns the series registered or found.
func (r *Registry) register(name, help string, k kind, s *series, getOrCreate bool) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, k: k}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.k != k {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different type", name))
	}
	key := seriesKey(s.labels)
	for _, prev := range f.series {
		if seriesKey(prev.labels) == key {
			if getOrCreate {
				return prev
			}
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, key))
		}
	}
	f.series = append(f.series, s)
	return s
}

// RegisterCounter registers a caller-owned counter (typically embedded
// in a component's metric set). Panics if the (name, labels) series
// already exists — pre-registered series are wired exactly once, at
// construction.
func (r *Registry) RegisterCounter(name, help string, c *Counter, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, kindCounter, &series{name: name, labels: sortLabels(labels), k: kindCounter, c: c}, false)
}

// RegisterGauge registers a caller-owned gauge. Panics on duplicates.
func (r *Registry) RegisterGauge(name, help string, g *Gauge, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, kindGauge, &series{name: name, labels: sortLabels(labels), k: kindGauge, g: g}, false)
}

// RegisterHistogram registers a caller-owned histogram. Panics on
// duplicates.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, kindHistogram, &series{name: name, labels: sortLabels(labels), k: kindHistogram, h: h}, false)
}

// RegisterSet registers every metric cell of the struct set points to:
// a Counter, Gauge or Histogram field tagged `metric:"name" help:"text"`
// becomes the series prefix+name with the given labels, and an embedded
// struct is walked the same way. This is the one way a component
// declares its metrics — the field list is the series list. A cell
// without both tags, or a field that is not a cell, panics, and does so
// with a nil registry too: every set is checked when its owner is
// constructed, whether or not anything is scraping it.
func (r *Registry) RegisterSet(prefix string, set any, labels ...Label) {
	r.registerFields(prefix, reflect.ValueOf(set).Elem(), labels)
}

func (r *Registry) registerFields(prefix string, v reflect.Value, labels []Label) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			r.registerFields(prefix, v.Field(i), labels)
			continue
		}
		name, help := f.Tag.Get("metric"), f.Tag.Get("help")
		if name == "" || help == "" {
			panic(fmt.Sprintf("obs: %s.%s needs metric and help tags", t, f.Name))
		}
		if r != nil {
			name = prefix + name // a nil registry checks the set and builds nothing
		}
		switch m := v.Field(i).Addr().Interface().(type) {
		case *Counter:
			r.RegisterCounter(name, help, m, labels...)
		case *Gauge:
			r.RegisterGauge(name, help, m, labels...)
		case *Histogram:
			r.RegisterHistogram(name, help, m, labels...)
		default:
			panic(fmt.Sprintf("obs: %s.%s is a %s, not a metric cell", t, f.Name, f.Type))
		}
	}
}

// Snapshot reads a set of live counters into its plain-value twin: S
// and *live are the same field list instantiated with uint64 and with
// Counter, and each field of the result holds the current count of the
// cell in the same position. Any other pairing panics.
func Snapshot[S, L any](live *L) S {
	var out S
	dst, src := reflect.ValueOf(&out).Elem(), reflect.ValueOf(live).Elem()
	if dst.NumField() != src.NumField() {
		panic(fmt.Sprintf("obs: %s and %s differ in length", dst.Type(), src.Type()))
	}
	for i := 0; i < src.NumField(); i++ {
		c, ok := src.Field(i).Addr().Interface().(*Counter)
		if !ok || dst.Type().Field(i).Name != src.Type().Field(i).Name {
			panic(fmt.Sprintf("obs: %s.%s does not mirror a counter %s.%s",
				dst.Type(), dst.Type().Field(i).Name, src.Type(), src.Type().Field(i).Name))
		}
		dst.Field(i).SetUint(c.Load())
	}
	return out
}

// Counter returns the counter for (name, labels), creating and
// registering it on first use. This is the dynamic-label path (e.g. a
// per-view DNS counter that must survive a config reload re-wiring the
// views): re-requesting the same series returns the same counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	s := r.register(name, help, kindCounter, &series{name: name, labels: sortLabels(labels), k: kindCounter, c: &Counter{}}, true)
	return s.c
}

// Gauge returns the gauge for (name, labels), creating and registering
// it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	s := r.register(name, help, kindGauge, &series{name: name, labels: sortLabels(labels), k: kindGauge, g: &Gauge{}}, true)
	return s.g
}

// Value returns the current value of the counter or gauge series, and
// whether it exists. Intended for tests and experiment drivers reading
// E-series counters by name.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return 0, false
	}
	key := seriesKey(sortLabels(labels))
	for _, s := range f.series {
		if seriesKey(s.labels) == key {
			switch s.k {
			case kindCounter:
				return float64(s.c.Load()), true
			case kindGauge:
				return float64(s.g.Load()), true
			}
		}
	}
	return 0, false
}

// labelString renders {k="v",...} with extra labels appended (used for
// histogram le labels). Values are escaped per the Prometheus text
// format.
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label{}, labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		v := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(l.Value)
		b.WriteString(v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): families in sorted-name order, each with HELP
// and TYPE lines, series in registration order within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	for _, f := range fams {
		typ := "counter"
		switch f.k {
		case kindGauge:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typ); err != nil {
			return err
		}
		for _, s := range f.series {
			switch s.k {
			case kindCounter:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", s.name, labelString(s.labels), s.c.Load()); err != nil {
					return err
				}
			case kindGauge:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", s.name, labelString(s.labels), s.g.Load()); err != nil {
					return err
				}
			case kindHistogram:
				h := s.h
				for i, bound := range h.bounds {
					le := strings.TrimSuffix(fmt.Sprintf("%g", bound), ".0")
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, labelString(s.labels, Label{"le", le}), h.Bucket(i)); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, labelString(s.labels, Label{"le", "+Inf"}), h.Count()); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", s.name, labelString(s.labels), h.Sum()); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", s.name, labelString(s.labels), h.Count()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
