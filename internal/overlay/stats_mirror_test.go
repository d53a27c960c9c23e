package overlay

import (
	"testing"

	"github.com/pcelisp/pcelisp/internal/obs/obstest"
)

func TestStatsMirrorMetrics(t *testing.T) {
	var m hostMetrics
	obstest.CheckMirror(t, &m, func() any { return m.snapshot() },
		map[string]string{"Malformed": "DecodeErrors"})
}
