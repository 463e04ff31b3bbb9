package httpx

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"winlab/internal/anomaly"
	"winlab/internal/telemetry"
)

func get(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(body), resp
}

func TestServerEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("ddc_probes_total").Add(17)
	reg.Gauge("ddc_probes_inflight").Set(2)
	reg.Histogram("ddc_probe_duration_seconds", nil).Observe(12 * time.Millisecond)
	reg.Spans().Record(telemetry.Span{Machine: "m01", Iter: 1, Attempt: 1, Outcome: telemetry.OutcomeOK})
	reg.Spans().Record(telemetry.Span{Machine: "m02", Iter: 1, Attempt: 2, Outcome: telemetry.OutcomeRetry, Err: "x"})

	srv, err := ServeEvents("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	body, resp := get(t, srv.URL()+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE ddc_probes_total counter", "ddc_probes_total 17",
		"ddc_probes_inflight 2",
		`ddc_probe_duration_seconds_bucket{le="+Inf"} 1`,
		"ddc_probe_duration_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	body, resp = get(t, srv.URL()+"/vars")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/vars content-type = %q", ct)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/vars not JSON: %v", err)
	}
	if snap.Counters["ddc_probes_total"] != 17 || snap.Spans.Total != 2 {
		t.Errorf("/vars snapshot = %+v", snap)
	}

	body, _ = get(t, srv.URL()+"/healthz")
	if strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %q", body)
	}

	body, _ = get(t, srv.URL()+"/spans?n=1")
	var spans []telemetry.Span
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("/spans not JSON: %v", err)
	}
	if len(spans) != 1 || spans[0].Machine != "m02" {
		t.Errorf("/spans?n=1 = %+v (want newest span only)", spans)
	}

	_, resp = get(t, srv.URL()+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", resp.StatusCode)
	}
}

// TestServerEvents serves a real anomaly ring on /events and checks the
// response is byte-identical to the ring's own JSON rendering, that ?n=
// limits to the newest events, and that a nil source degrades to "[]".
func TestServerEvents(t *testing.T) {
	reg := telemetry.NewRegistry()
	ring := anomaly.NewRing(8)
	for i := 0; i < 5; i++ {
		ring.Add(anomaly.Event{
			Kind:      anomaly.KindRebootStorm,
			Machine:   fmt.Sprintf("m%02d", i),
			FirstIter: i,
			LastIter:  i,
			Score:     float64(i) + 0.5,
		})
	}
	srv, err := ServeEvents("127.0.0.1:0", reg, ring)
	if err != nil {
		t.Fatalf("ServeEvents: %v", err)
	}
	defer srv.Close()

	body, resp := get(t, srv.URL()+"/events")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/events content-type = %q", ct)
	}
	if want := string(ring.AppendJSON(nil, 0)) + "\n"; body != want {
		t.Errorf("/events = %s, want %s", body, want)
	}
	var events []anomaly.Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("/events not JSON: %v", err)
	}
	if len(events) != 5 || events[4].Machine != "m04" {
		t.Errorf("/events parsed to %+v", events)
	}

	body, _ = get(t, srv.URL()+"/events?n=2")
	events = nil
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("/events?n=2 not JSON: %v", err)
	}
	if len(events) != 2 || events[0].Machine != "m03" || events[1].Machine != "m04" {
		t.Errorf("/events?n=2 = %+v, want the two newest", events)
	}

	// A malformed or non-positive limit falls back to the full buffer.
	for _, q := range []string{"?n=bogus", "?n=-3", "?n=0"} {
		if body, _ := get(t, srv.URL()+"/events"+q); body != string(ring.AppendJSON(nil, 0))+"\n" {
			t.Errorf("/events%s did not serve the full buffer: %s", q, body)
		}
	}

	nilSrv, err := ServeEvents("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer nilSrv.Close()
	if body, _ := get(t, nilSrv.URL()+"/events"); body != "[]\n" {
		t.Errorf("/events with no source = %q, want []", body)
	}
}

func TestServerNilRegistry(t *testing.T) {
	srv, err := ServeEvents("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	// The endpoints stay up with empty documents: liveness probing of the
	// coordinator itself must not depend on telemetry being enabled.
	if body, _ := get(t, srv.URL()+"/metrics"); body != "" {
		t.Errorf("/metrics on nil registry = %q, want empty", body)
	}
	body, _ := get(t, srv.URL()+"/vars")
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/vars not JSON: %v", err)
	}
	if body, _ := get(t, srv.URL()+"/healthz"); strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %q", body)
	}
}
