package lispd

import (
	"encoding/json"
	"os"
	"testing"
)

// FuzzConfig feeds operator-written bytes to the daemon's config parser:
// it never panics, and a config it accepts is still accepted after a
// marshal/unmarshal round trip — what /statusz renders and what an
// operator would paste back is a config the daemon takes.
func FuzzConfig(f *testing.F) {
	ref, err := os.ReadFile("testdata/site-a.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ref)
	for _, tc := range configCases {
		cfg := testConfig(0)
		tc.mutate(cfg)
		data, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := parseConfig(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config does not marshal: %v", err)
		}
		if _, err := parseConfig(again); err != nil {
			t.Fatalf("accepted config rejected after a round trip: %v\nfirst:  %s\nsecond: %s", err, data, again)
		}
	})
}
