package lispd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

func adminGet(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminEndpoint boots a daemon with the admin listener enabled,
// drives one DNS query through it, and scrapes every endpoint group:
// /metrics (format-checked, all migrated subsystems present), /healthz,
// /statusz (secrets redacted), /flightrecorder and /debug/pprof/.
func TestAdminEndpoint(t *testing.T) {
	cfg := testConfig(0)
	cfg.Admin = "127.0.0.1:0"
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	base := d.AdminAddr()
	if base == "" {
		t.Fatal("AdminAddr empty with admin configured")
	}
	d.Start()

	// One authoritative query from an internal client bumps the overlay
	// and dnsfe counters the scrape asserts on.
	client := newEndHost(t)
	es := netaddr.MustParseAddr("100.1.1.1")
	dnsA := netaddr.MustParseAddr("172.16.0.2")
	d.SetPeer(netaddr.HostPrefix(es), client.addr())
	q := &packet.DNS{
		ID: 7, RD: true,
		Questions: []packet.DNSQuestion{{Name: "h0.d0.example", Type: packet.DNSTypeA, Class: packet.DNSClassIN}},
	}
	client.send(d.RealAddr(), runtime.EncodeUDP(es, dnsA, 5353, packet.PortDNS, q))
	client.recv(5 * time.Second)

	t.Run("healthz", func(t *testing.T) {
		code, body := adminGet(t, base, "/healthz")
		if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
			t.Fatalf("healthz = %d %q", code, body)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		code, body := adminGet(t, base, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("metrics status = %d", code)
		}
		// Every line is a comment or a "name{labels} value" sample.
		for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
			if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
				continue
			}
			if line == "" || !strings.Contains(line, " ") {
				t.Fatalf("malformed exposition line %q", line)
			}
		}
		// Every migrated subsystem shows up in one daemon's exposition.
		for _, series := range []string{
			"pcelisp_overlay_rx_frames_total",
			"pcelisp_overlay_no_route_drops_total",
			"pcelisp_overlay_decode_errors_total",
			"pcelisp_xtr_encap_packets_total",
			"pcelisp_xtr_resolution_seconds_bucket",
			"pcelisp_mapcache_hits_total",
			"pcelisp_pce_ipc_queries_total",
			"pcelisp_pce_fetch_queue_depth",
			"pcelisp_dnsfe_queries_total",
			"pcelisp_dnsfe_nxdomain_total",
			"pcelisp_dnsfe_reloads_total",
		} {
			if !strings.Contains(body, series) {
				t.Errorf("exposition missing %s", series)
			}
		}
		// The served query is visible: total and per-view counters moved.
		if !strings.Contains(body, `pcelisp_dnsfe_queries_total{node="d0"} 1`) {
			t.Errorf("dnsfe query not counted:\n%s", grepLines(body, "dnsfe_queries"))
		}
		if !strings.Contains(body, `pcelisp_dnsfe_view_queries_total{node="d0",view="internal"} 1`) {
			t.Errorf("per-view query not counted:\n%s", grepLines(body, "view_queries"))
		}
	})

	t.Run("statusz", func(t *testing.T) {
		code, body := adminGet(t, base, "/statusz")
		if code != http.StatusOK {
			t.Fatalf("statusz status = %d", code)
		}
		var st statusSnapshot
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("statusz is not JSON: %v\n%s", err, body)
		}
		if st.Name != "d0" {
			t.Errorf("statusz name = %q", st.Name)
		}
		if want := []string{"site", "pce", "dns"}; fmt.Sprint(st.Roles) != fmt.Sprint(want) {
			t.Errorf("roles = %v, want %v", st.Roles, want)
		}
		if st.Config == nil || len(st.Config.Keys) == 0 || st.Config.Keys[0].Secret != "<redacted>" {
			t.Errorf("statusz leaks or drops key material: %+v", st.Config)
		}
		if len(st.Peers) == 0 {
			t.Errorf("statusz peer table empty after SetPeer")
		}
		if st.Cache == nil {
			t.Errorf("statusz cache summary missing for a site daemon")
		}
		if st.DNS == nil || st.DNS.Queries != 1 {
			t.Errorf("statusz dns stats = %+v, want 1 query", st.DNS)
		}
	})

	t.Run("flightrecorder", func(t *testing.T) {
		code, body := adminGet(t, base, "/flightrecorder")
		if code != http.StatusOK {
			t.Fatalf("flightrecorder status = %d", code)
		}
		var dump struct {
			TotalRecorded uint64            `json:"total_recorded"`
			Retained      int               `json:"retained"`
			Events        []json.RawMessage `json:"events"`
		}
		if err := json.Unmarshal([]byte(body), &dump); err != nil {
			t.Fatalf("flightrecorder is not JSON: %v\n%.300s", err, body)
		}
		if len(dump.Events) != dump.Retained {
			t.Errorf("retained = %d but %d events dumped", dump.Retained, len(dump.Events))
		}
	})

	t.Run("pprof", func(t *testing.T) {
		code, body := adminGet(t, base, "/debug/pprof/")
		if code != http.StatusOK || !strings.Contains(body, "goroutine") {
			t.Fatalf("pprof index = %d %.100q", code, body)
		}
		code, _ = adminGet(t, base, "/debug/pprof/cmdline")
		if code != http.StatusOK {
			t.Fatalf("pprof cmdline = %d", code)
		}
	})
}

// grepLines returns the lines of s containing sub (test-failure context).
func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestAdminDisabled: no admin config, no listener.
func TestAdminDisabled(t *testing.T) {
	d, err := New(testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if got := d.AdminAddr(); got != "" {
		t.Fatalf("AdminAddr = %q without admin config", got)
	}
}

// TestAdminReloadImmutable: a reload changing the admin address is
// rejected whole.
func TestAdminReloadImmutable(t *testing.T) {
	cfg := testConfig(0)
	cfg.Admin = "127.0.0.1:0"
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	d.Start()

	next := testConfig(0)
	next.Admin = "127.0.0.1:1"
	if err := d.Reload(next); err == nil || !strings.Contains(err.Error(), "admin") {
		t.Fatalf("reload with changed admin address: err = %v, want rejection", err)
	}
}

// TestReadyzFollowsTheLoop: /readyz is apart from /healthz — a daemon
// whose loop is stuck is alive but not ready, and ready again once the
// loop turns.
func TestReadyzFollowsTheLoop(t *testing.T) {
	cfg := testConfig(0)
	cfg.Admin = "127.0.0.1:0"
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	d.Start()
	base := d.AdminAddr()

	if code, body := adminGet(t, base, "/readyz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("readyz on a running daemon = %d %q", code, body)
	}

	unpark := parkLoop(t, d)
	code, _ := adminGet(t, base, "/readyz") // takes readyDeadline
	healthCode, _ := adminGet(t, base, "/healthz")
	unpark()
	if code != http.StatusServiceUnavailable || healthCode != http.StatusOK {
		t.Fatalf("stuck loop: readyz = %d, healthz = %d; want 503 and 200", code, healthCode)
	}
	if code, _ := adminGet(t, base, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after the loop resumed = %d, want 200", code)
	}
}

// TestStatuszDuringReload hammers /statusz while Reload swaps the config
// pointer; under -race it fails if the handler reads the pointer without
// the daemon lock.
func TestStatuszDuringReload(t *testing.T) {
	cfg := testConfig(0)
	cfg.Admin = "127.0.0.1:0"
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	d.Start()
	base := d.AdminAddr()

	stop, reloaded := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(reloaded)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			next := testConfig(0)
			next.Admin = cfg.Admin
			next.DNS.Records = append(next.DNS.Records, RecordConfig{Name: fmt.Sprintf("r%d.d0.example", i), Addr: "100.1.9.9"})
			if err := d.Reload(next); err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if code, body := adminGet(t, base, "/statusz"); code != http.StatusOK {
			t.Errorf("statusz during reload = %d %.100q", code, body)
			break
		}
	}
	close(stop)
	<-reloaded
}
