package core

import (
	"testing"

	"github.com/pcelisp/pcelisp/internal/obs/obstest"
)

func TestStatsMirrorMetrics(t *testing.T) {
	var m pceMetrics
	obstest.CheckMirror(t, &m, func() any { return m.snapshot() }, nil)
}
