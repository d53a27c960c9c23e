package main

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestBadArgumentKeepsProfileWhole: a mistyped -run, -cps or -seeds used
// to os.Exit(2) from inside run, skipping the deferred StopCPUProfile and
// leaving an empty -cpuprofile behind. The code now comes back through
// run, so the profile written before the mistake was noticed is a
// complete gzip stream.
func TestBadArgumentKeepsProfileWhole(t *testing.T) {
	for _, bad := range [][]string{
		{"-run", "E99"},
		{"-cps", "PCE-CP,nope"},
		{"-seeds", "1,x"},
		{"-scenario", "-cps", "ALT,CONS"},
	} {
		prof := filepath.Join(t.TempDir(), "cpu.out")
		if code := run(append([]string{"-cpuprofile", prof}, bad...)); code != 2 {
			t.Errorf("run(%v) = %d, want 2", bad, code)
		}
		f, err := os.Open(prof)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err == nil {
			_, err = io.Copy(io.Discard, zr)
		}
		if err != nil {
			t.Errorf("run(%v) left a truncated profile: %v", bad, err)
		}
		f.Close()
	}
}

// TestScenarioMode drives -scenario: one small world, every flow
// completes.
func TestScenarioMode(t *testing.T) {
	if code := run([]string{"-scenario", "-cps", "ALT", "-domains", "3", "-flows", "4", "-policy", "queue"}); code != 0 {
		t.Fatalf("scenario exit code = %d, want 0", code)
	}
	if code := run([]string{"-scenario", "-domains", "1"}); code != 2 {
		t.Fatalf("one-domain scenario exit code = %d, want 2", code)
	}
}
