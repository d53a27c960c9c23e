// Link-load telemetry: the xTR half of the closed-loop inbound TE
// optimizer. A reporting xTR samples the delivered-byte (goodput)
// counters of its provider links on a typed timer and streams the deltas
// to a collector — normally the domain's PCE — as PCECPLoadReport
// messages on port P. The stream is deliberately cheap: one small
// datagram per interval per xTR, no per-packet work, so the central
// optimizer gets fresh utilization without the border routers doing any
// computation beyond a counter subtraction.
package lisp

import (
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// TelemetryLink is one monitored provider attachment.
type TelemetryLink struct {
	// RLOC identifies the link in the reports.
	RLOC netaddr.Addr
	// Sample reads the provider link's cumulative goodput counters: bytes
	// delivered toward the provider (out) and toward the xTR (in).
	Sample func() (out, in uint64)
	// CapacityBps is echoed in the reports so the collector can
	// normalize without per-link configuration.
	CapacityBps int64

	lastOut, lastIn uint64
}

// TelemetryConfig tunes xTR load reporting.
type TelemetryConfig struct {
	// Collector receives the reports on port P.
	Collector netaddr.Addr
	// Interval is the sampling/reporting period (default 1s).
	Interval runtime.Time
	// Links are the provider attachments to sample.
	Links []TelemetryLink
}

// EnableTelemetry starts periodic load reporting (keeps the event queue
// alive forever; run the simulation with bounded windows). The first
// tick primes the counters and sends nothing, so every report covers
// exactly one interval.
func (x *XTR) EnableTelemetry(cfg TelemetryConfig) {
	if x.telemetry != nil || len(cfg.Links) == 0 {
		return
	}
	if cfg.Interval == 0 {
		cfg.Interval = time.Second
	}
	x.telemetry = &cfg
	for i := range cfg.Links {
		l := &cfg.Links[i]
		l.lastOut, l.lastIn = l.Sample()
	}
	x.rt.ScheduleTimer(cfg.Interval, x, runtime.TimerArg{Kind: xtrTimerTelemetry})
}

// telemetryTick samples every link and ships one LoadReport.
func (x *XTR) telemetryTick() {
	cfg := x.telemetry
	loads := make([]packet.PCELoadRecord, len(cfg.Links))
	for i := range cfg.Links {
		l := &cfg.Links[i]
		out, in := l.Sample()
		loads[i] = packet.PCELoadRecord{
			RLOC:        l.RLOC,
			OutBytes:    out - l.lastOut,
			InBytes:     in - l.lastIn,
			CapacityBps: uint64(l.CapacityBps),
			WindowMs:    uint32(cfg.Interval / runtime.Time(time.Millisecond)),
		}
		l.lastOut, l.lastIn = out, in
	}
	msg := &packet.PCECP{
		Version: packet.PCECPVersion, Type: packet.PCECPLoadReport,
		Nonce: x.rt.Rand().Uint64(), Loads: loads,
	}
	n := x.host.OutputUDP(x.cfg.RLOC, cfg.Collector, packet.PortPCECP, packet.PortPCECP, msg)
	x.met.TelemetryReports.Inc()
	x.met.TelemetryBytes.Add(uint64(n))
	x.rt.ScheduleTimer(cfg.Interval, x, runtime.TimerArg{Kind: xtrTimerTelemetry})
}
