package main

// The metric catalogue. BENCHMARK.json at the repository root lists the
// same names, units and directions (TestCatalogueMatchesBenchmarkJSON
// holds the two together); README.md says what each one measures and
// which end-to-end number it should move.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// workloadNames are the workloads BENCHMARK.json lists, and so the ones
// the driver and the self-check run. sim_hot is not among them: the
// driver's time limit holds four workloads of 20 s with three set-ups per
// run, and ISSUE 13 names sim_hot as the one to leave out. It still runs
// by name (allWorkloads) and in the smoke test.
var workloadNames = []string{"fwd_small", "flow_setup", "sim_setup", "sim_suite"}

var allWorkloads = append([]string{"sim_hot"}, workloadNames...)

// endToEnd is what an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"rss_mb", "MB", "lower", 0.25},
}

// perLayer is what a traced run reports. A metric that belongs to another
// workload (experiments.* outside sim_suite, say) reads 0 there.
var perLayer = []metricDef{
	// overlay: one UDP socket carrying full IPv4 frames.
	{name: "overlay.rx_dispatch_us", unit: "us", better: "lower"},
	{name: "overlay.rx_pps", unit: "1/s", better: "higher"},
	{name: "overlay.rx_allocs_per_frame", unit: "count", better: "lower"},
	{name: "overlay.output_ns", unit: "ns", better: "lower"},
	{name: "overlay.output_allocs", unit: "count", better: "lower"},
	{name: "overlay.frames_per_op", unit: "count", better: "lower"},
	{name: "overlay.drops_per_op", unit: "count", better: "lower"},
	// runtime.Loop: the real-time event loop.
	{name: "runtime.post_ns", unit: "ns", better: "lower"},
	{name: "runtime.post_allocs", unit: "count", better: "lower"},
	{name: "runtime.post_wake_us", unit: "us", better: "lower"},
	{name: "runtime.timer_churn_ns", unit: "ns", better: "lower"},
	// lisp: the xTR data plane and its tables.
	{name: "lisp.encap_fast_ns", unit: "ns", better: "lower"},
	{name: "lisp.encap_fast_allocs", unit: "count", better: "lower"},
	{name: "lisp.decap_ns", unit: "ns", better: "lower"},
	{name: "lisp.decap_allocs", unit: "count", better: "lower"},
	{name: "lisp.encap_first_ns", unit: "ns", better: "lower"},
	{name: "lisp.install_flow_ns", unit: "ns", better: "lower"},
	{name: "lisp.flow_path_share", unit: "ratio", better: "higher"},
	{name: "lisp.mapcache_hit_ns", unit: "ns", better: "lower"},
	{name: "lisp.mapcache_churn_ns", unit: "ns", better: "lower"},
	{name: "netaddr.trie_lookup_ns", unit: "ns", better: "lower"},
	// core: the PCE on the DNS path.
	{name: "core.sniff_pass_ns", unit: "ns", better: "lower"},
	{name: "core.dns_reply_encap_ns", unit: "ns", better: "lower"},
	{name: "core.portp_push_ns", unit: "ns", better: "lower"},
	{name: "core.pushes_per_op", unit: "count", better: "lower"},
	{name: "core.ctl_msgs_per_op", unit: "count", better: "lower"},
	{name: "core.ctl_bytes_per_op", unit: "B", better: "lower"},
	// lispd: the assembled daemon.
	{name: "lispd.dns_local_us", unit: "us", better: "lower"},
	{name: "lispd.dns_wait_us", unit: "us", better: "lower"},
	{name: "lispd.first_packet_us", unit: "us", better: "lower"},
	{name: "lispd.tdns_ratio", unit: "ratio", better: "lower"},
	// packet: codecs.
	{name: "packet.encode_udp_ns", unit: "ns", better: "lower"},
	{name: "packet.decode_full_ns", unit: "ns", better: "lower"},
	{name: "packet.decode_full_allocs", unit: "count", better: "lower"},
	{name: "packet.peek_udp_ns", unit: "ns", better: "lower"},
	{name: "packet.encap_template_ns", unit: "ns", better: "lower"},
	{name: "packet.pcecp_push_roundtrip_ns", unit: "ns", better: "lower"},
	{name: "packet.dns_roundtrip_ns", unit: "ns", better: "lower"},
	// simnet: the discrete-event engine.
	{name: "simnet.sched_ns_per_event", unit: "ns", better: "lower"},
	{name: "simnet.link_ns_per_frame", unit: "ns", better: "lower"},
	{name: "simnet.events_per_op", unit: "count", better: "lower"},
	{name: "simnet.events_per_s", unit: "1/s", better: "higher"},
	// control planes under sim_setup: host time, then simulated time.
	{name: "mapsys.alt_us_per_flow", unit: "us", better: "lower"},
	{name: "mapsys.cons_us_per_flow", unit: "us", better: "lower"},
	{name: "mapsys.msmr_us_per_flow", unit: "us", better: "lower"},
	{name: "mapsys.nerd_us_per_flow", unit: "us", better: "lower"},
	{name: "core.pce_us_per_flow", unit: "us", better: "lower"},
	{name: "model.setup_ms_alt", unit: "ms", better: "lower"},
	{name: "model.setup_ms_cons", unit: "ms", better: "lower"},
	{name: "model.setup_ms_msmr", unit: "ms", better: "lower"},
	{name: "model.setup_ms_nerd", unit: "ms", better: "lower"},
	{name: "model.setup_ms_pce", unit: "ms", better: "lower"},
	// experiments: host seconds per experiment inside a sim_suite pass.
	{name: "experiments.E1_s", unit: "s", better: "lower"},
	{name: "experiments.E2_s", unit: "s", better: "lower"},
	{name: "experiments.E3_s", unit: "s", better: "lower"},
	{name: "experiments.E4_s", unit: "s", better: "lower"},
	{name: "experiments.E5_s", unit: "s", better: "lower"},
	{name: "experiments.E6_s", unit: "s", better: "lower"},
	{name: "experiments.E7_s", unit: "s", better: "lower"},
	{name: "experiments.E8_s", unit: "s", better: "lower"},
	{name: "experiments.E9_s", unit: "s", better: "lower"},
	{name: "experiments.E10_s", unit: "s", better: "lower"},
	{name: "experiments.E11_s", unit: "s", better: "lower"},
	{name: "experiments.E12_s", unit: "s", better: "lower"},
	{name: "experiments.E13_s", unit: "s", better: "lower"},
	// obs: counters and exposition.
	{name: "obs.counter_inc_ns", unit: "ns", better: "lower"},
	{name: "obs.scrape_us", unit: "us", better: "lower"},
	// proc: the split of cpu_us_per_op and allocs_per_op.
	{name: "proc.user_cpu_us_per_op", unit: "us", better: "lower"},
	{name: "proc.sys_cpu_us_per_op", unit: "us", better: "lower"},
	{name: "proc.bytes_per_op", unit: "B", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.ctx_switches_per_op", unit: "count", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	// diagnostics, ungated.
	{name: "e2e.latency_tail_us", unit: "us", better: "lower"},
	{name: "e2e.latency_tail_pct", unit: "%", better: "higher"},
	{name: "e2e.round_iqr_share", unit: "ratio", better: "lower"},
	{name: "fwd.sat_latency_p50_us", unit: "us", better: "lower"},
	{name: "fwd.large_ops_per_s", unit: "1/s", better: "higher"},
	{name: "harness.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "harness.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "host.calib_ns", unit: "ns", better: "lower"},
	{name: "host.slowdown", unit: "ratio", better: "lower"},
}
