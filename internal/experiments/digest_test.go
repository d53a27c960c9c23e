package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"testing"
)

// quickSuiteDigest is the SHA-256 of every table of E1–E13 at seed 1,
// quick scale, rendered serially in registry order — the value the
// benchmark prints as "sim_suite tables sha256". It moves only when the
// science does: a refactor of the engine, the harness or the protocol
// code must leave it alone, and a change that means to move a number
// updates this line, where a reviewer sees it.
const quickSuiteDigest = "661a5a6e0d7cdf9b11c24e46336f5a420c5d586298ba0ef1c9c536aea9938ddf"

var updateDigest = flag.Bool("update", false, "print the quick-suite digest instead of comparing it to the committed one")

func TestQuickSuiteDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole quick suite")
	}
	h := sha256.New()
	for _, e := range All() {
		for _, tbl := range e.Run(1, true) {
			h.Write([]byte(tbl.String()))
		}
	}
	got := fmt.Sprintf("%x", h.Sum(nil))
	if *updateDigest {
		t.Logf("quickSuiteDigest = %q", got)
		return
	}
	if got != quickSuiteDigest {
		t.Fatalf("quick-suite tables digest = %s, committed %s: some table changed. If that is intended, commit the new constant (go test -v -run TestQuickSuiteDigest ./internal/experiments -update prints it)", got, quickSuiteDigest)
	}
}
