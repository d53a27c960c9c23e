// Package obstest holds test helpers for code instrumented with
// internal/obs.
package obstest

import (
	"reflect"
	"testing"

	"github.com/pcelisp/pcelisp/internal/obs"
)

// CheckMirror verifies a hand-written snapshot of a metric set: metrics
// points to a zero struct of obs cells, and snapshot renders it as a plain
// struct of uint64 fields. Counter cell i is set to i+1, so a snapshot
// that drops a field (left zero) or crosses two (wrong value) fails.
// Every stats field must mirror the counter cell of the same name —
// renamed maps the stats fields that are named differently to their
// cell — and every counter cell must be mirrored by some field.
func CheckMirror(t *testing.T, metrics any, snapshot func() any, renamed map[string]string) {
	t.Helper()
	cells := reflect.ValueOf(metrics).Elem()
	want := make(map[string]uint64)
	for i := 0; i < cells.NumField(); i++ {
		if c, ok := cells.Field(i).Addr().Interface().(*obs.Counter); ok {
			c.Add(uint64(i + 1))
			want[cells.Type().Field(i).Name] = uint64(i + 1)
		}
	}
	stats := reflect.ValueOf(snapshot())
	for i := 0; i < stats.NumField(); i++ {
		name := stats.Type().Field(i).Name
		cell := name
		if r, ok := renamed[name]; ok {
			cell = r
		}
		v, ok := want[cell]
		if !ok {
			t.Errorf("%s.%s mirrors no counter cell in %s", stats.Type(), name, cells.Type())
			continue
		}
		if got := stats.Field(i).Uint(); got != v {
			t.Errorf("%s.%s = %d, want %d (cell %s)", stats.Type(), name, got, v, cell)
		}
		delete(want, cell)
	}
	for cell := range want {
		t.Errorf("counter cell %s.%s is missing from %s", cells.Type(), cell, stats.Type())
	}
}
