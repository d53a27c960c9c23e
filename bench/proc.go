package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// memSnap is a point-in-time reading of the Go heap's meters. Taking one
// stops the world (ReadMemStats), so snapshots sit on window boundaries,
// never inside one. CPU time and context switches are read per slice by
// the meter, which keeps the reference spins out of them; the spins
// allocate nothing, so they need no keeping out of these.
type memSnap struct {
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func snapMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

// memDelta is what a window was charged between two snapshots.
type memDelta memSnap

func (a memSnap) until(b memSnap) memDelta {
	return memDelta{
		mallocs:    b.mallocs - a.mallocs,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCycles:   b.gcCycles - a.gcCycles,
		gcPause:    b.gcPause - a.gcPause,
	}
}

// procStatusMB reads one "Vm…:" line of /proc/self/status, in MB.
func procStatusMB(key string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] != key+":" {
			continue
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/self/status %s: %w", key, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status has no %s line", key)
}

// settledRSSMB is the resident set once the window's garbage is collected
// and the freed pages are handed back, less the free heap pages the runtime
// still keeps mapped: what the system holds, without the collector's
// transient headroom. FreeOSMemory leaves between 0.2 and 6 MB of idle
// spans resident from one identical run to the next (it does not break up
// huge pages), which on the simulator workloads was a third of the reading;
// MemStats says exactly how much, so it is taken out. The high-water mark
// (VmHWM) is a max over hundreds of GC cycles whose lengths the host
// decides; it moved by a quarter between identical runs, so it is reported
// per layer (proc.peak_rss_mb) and this is what gets gated.
func settledRSSMB() (float64, error) {
	debug.FreeOSMemory() // forces a collection first
	rss, err := procStatusMB("VmRSS")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rss - float64(ms.HeapIdle-ms.HeapReleased)/(1<<20), err
}
