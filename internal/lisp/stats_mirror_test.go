package lisp

import (
	"testing"

	"github.com/pcelisp/pcelisp/internal/obs/obstest"
)

func TestStatsMirrorMetrics(t *testing.T) {
	var xm xtrMetrics
	obstest.CheckMirror(t, &xm, func() any { return xm.snapshot() }, nil)
	var cm mapCacheMetrics
	obstest.CheckMirror(t, &cm, func() any { return cm.snapshot() }, nil)
}
