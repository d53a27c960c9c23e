package mapsys

import (
	"testing"

	"github.com/pcelisp/pcelisp/internal/obs/obstest"
)

func TestStatsMirrorMetrics(t *testing.T) {
	var ms msMetrics
	obstest.CheckMirror(t, &ms, func() any { return ms.snapshot() }, nil)
	var mr MapResolver
	obstest.CheckMirror(t, &mr.met, func() any { return mr.Stats() }, nil)
}
