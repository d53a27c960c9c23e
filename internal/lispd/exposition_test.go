package lispd

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/exposition.golden instead of comparing against it")

// TestExpositionGolden pins the daemon's metric namespace — the dnsfe and
// overlay series exist only here — as internal/experiments pins the
// simulator's: names, HELP, TYPE, label sets and order of a freshly built
// daemon's /metrics registry, byte for byte, with sample values masked.
func TestExpositionGolden(t *testing.T) {
	const golden = "testdata/exposition.golden"
	d, err := New(testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	var raw bytes.Buffer
	if err := d.Registry().WritePrometheus(&raw); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(raw.String(), "\n") {
		if i := strings.LastIndexByte(line, ' '); i >= 0 && !strings.HasPrefix(line, "#") {
			line = line[:i] + " V\n"
		}
		got.WriteString(line)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("daemon exposition differs from %s (-update rewrites it):\n%s", golden, got.String())
	}
}
