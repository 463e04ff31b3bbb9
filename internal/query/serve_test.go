package query

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/anomaly"
)

// TestServerShutdownDrainsInFlight: a request already inside a handler
// completes with 200 across Shutdown, and Shutdown waits for it; a new
// connection afterwards is refused.
func TestServerShutdownDrainsInFlight(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	srv, err := Serve("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	}))
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		status int
		body   string
		err    error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get(srv.URL() + "/slow")
		if err != nil {
			got <- reply{err: err}
			return
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- reply{resp.StatusCode, string(b), err}
	}()
	<-entered

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()
	// Shutdown closes the listener first; once it refuses, release the
	// handler. Shutdown must still be waiting for it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("the listener still accepts connections during Shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) before the in-flight request finished", err)
	default:
	}
	close(release)

	if r := <-got; r.err != nil || r.status != http.StatusOK || r.body != "done" {
		t.Fatalf("in-flight request across Shutdown: status %d body %q err %v; want 200 \"done\"", r.status, r.body, r.err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if c, err := net.DialTimeout("tcp", srv.Addr(), time.Second); err == nil {
		c.Close()
		t.Fatal("a new connection was accepted after Shutdown")
	}
}

// FuzzServeEvents: whatever the since and max parameters hold, /api/events
// answers 400, or 200 with a body encoding/json accepts — never a panic.
// The committed corpus (testdata/fuzz/FuzzServeEvents) covers epoch
// numbers, RFC 3339 times, negative, overflowing, empty and garbage values.
func FuzzServeEvents(f *testing.F) {
	ev := NewEventLog(8, func() uint64 { return 9 })
	for i := 0; i < 12; i++ { // more than the log holds: the ring wraps
		ev.Add(anomaly.Event{
			Time: t0.Add(time.Duration(i) * time.Hour), Kind: "mass-outage", Severity: "crit",
			Lab: "lab2", Machine: "pc\"03\\", FirstIter: i, LastIter: i + 4, Score: float64(i) / 3,
			Detail: "<dark> \x00",
		})
	}
	h := NewHandler(Config{Store: NewStore(analysis.Options{}), Events: ev})
	f.Fuzz(func(t *testing.T, since, max string) {
		q := url.Values{}
		if since != "" {
			q.Set("since", since)
		}
		if max != "" {
			q.Set("max", max)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/events?"+q.Encode(), nil))
		switch rec.Code {
		case http.StatusBadRequest:
		case http.StatusOK:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("since=%q max=%q: 200 with invalid JSON: %q", since, max, rec.Body.Bytes())
			}
		default:
			t.Fatalf("since=%q max=%q: status %d, want 200 or 400", since, max, rec.Code)
		}
	})
}

// TestSnapshotBodiesCarryContentLength: over a real connection every
// snapshot endpoint answers GET with a Content-Length equal to its body,
// not a chunked body, and HEAD with the same length and no body.
func TestSnapshotBodiesCarryContentLength(t *testing.T) {
	h, _ := testHandler(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	n := 0
	for _, path := range allPaths {
		if path == "/api/events" {
			continue // built per request, not a cached snapshot body
		}
		n++
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
			t.Errorf("GET %s: status %d, transfer encoding %v, Content-Length %d for a %d-byte body",
				path, resp.StatusCode, resp.TransferEncoding, resp.ContentLength, len(body))
		}
		resp, err = http.Head(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || resp.ContentLength != int64(len(body)) {
			t.Errorf("HEAD %s: status %d, Content-Length %d, want %d", path, resp.StatusCode, resp.ContentLength, len(body))
		}
	}
	if n != 9 {
		t.Fatalf("checked %d snapshot endpoints, want 9", n)
	}
}
