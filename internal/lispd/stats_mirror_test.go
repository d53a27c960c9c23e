package lispd

import (
	"testing"

	"github.com/pcelisp/pcelisp/internal/obs/obstest"
)

func TestStatsMirrorMetrics(t *testing.T) {
	var m feMetrics
	obstest.CheckMirror(t, &m, func() any { return m.snapshot() }, nil)
}
