// Command queryload is the load harness for the query service: it
// drives the /api/* cached-aggregate endpoints — in-process against a
// freshly built handler, or over HTTP against a running queryd — and
// records the latency/throughput curve as JSON.
//
// Modes:
//
//   - Closed loop (default): -conns workers issue requests back-to-back.
//     Throughput is what the server sustains; latency is per-request.
//   - Open loop (-rate R): workers pace requests to an aggregate target
//     of R req/s regardless of completions, the arrival model that
//     exposes queueing collapse. Requests that cannot start on schedule
//     are counted late.
//   - Saturation probe (-saturate): runs a baseline phase against a
//     generously gated handler, then an overload phase with many more
//     workers than execution slots. Passes when the p99 of *served*
//     (200) responses under overload stays within 2× the baseline p99 —
//     the load-shedding guarantee: excess load is refused (503), not
//     queued into everyone's tail.
//
// The -floor flag makes the run a gate: exit 1 when the best closed-loop
// endpoint throughput is below the floor (the CI smoke floor).
//
// Usage:
//
//	queryload [-inproc] [-sim-days 7] [-seed 1] [-url http://host:port]
//	          [-endpoints epoch,summary,availability] [-conns N]
//	          [-duration 2s] [-rate 0] [-saturate] [-floor 0]
//	          [-o curve.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/experiment"
	"winlab/internal/query"
)

// Env records the machine the numbers were measured on: absolute
// throughput numbers are meaningless without it.
type Env struct {
	GoMaxProcs int    `json:"go_max_procs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

// Run is one measured load phase.
type Run struct {
	Mode        string  `json:"mode"` // inproc | http
	Endpoint    string  `json:"endpoint"`
	Conns       int     `json:"conns"`
	RateTarget  float64 `json:"rate_target,omitempty"` // open loop only
	DurationSec float64 `json:"duration_sec"`
	Requests    int64   `json:"requests"`
	OK          int64   `json:"ok"`
	Shed        int64   `json:"shed"` // 503s
	Errors      int64   `json:"errors"`
	Late        int64   `json:"late,omitempty"` // open loop: behind schedule
	RPS         float64 `json:"rps"`
	P50Us       float64 `json:"p50_us"`
	P90Us       float64 `json:"p90_us"`
	P99Us       float64 `json:"p99_us"`
	MaxUs       float64 `json:"max_us"`
}

// Saturation is the shedding probe's verdict.
type Saturation struct {
	BaselineP99Us float64 `json:"baseline_p99_us"`
	OverloadP99Us float64 `json:"overload_p99_us"`
	ShedRate      float64 `json:"shed_rate"`
	Held          bool    `json:"held"` // overload p99 ≤ 2× baseline p99
}

// Output is the committed BENCH document.
type Output struct {
	Env        Env         `json:"env"`
	Runs       []Run       `json:"runs"`
	Saturation *Saturation `json:"saturation,omitempty"`
}

// fakeWriter is the in-process response sink: header map reused, body
// discarded, status captured.
type fakeWriter struct {
	h      http.Header
	status int
	n      int64
}

func (w *fakeWriter) Header() http.Header { return w.h }
func (w *fakeWriter) WriteHeader(c int)   { w.status = c }
func (w *fakeWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}

// sampleEvery bounds latency memory: record one in K latencies (counts
// stay exact).
const sampleEvery = 8

type workerStats struct {
	requests, ok, shed, errs, late int64
	lat                            []int64 // sampled, ns
}

func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / 1e3 // µs
}

func summarize(mode, endpoint string, conns int, rate float64, dur time.Duration, ws []workerStats) Run {
	r := Run{Mode: mode, Endpoint: endpoint, Conns: conns, RateTarget: rate, DurationSec: dur.Seconds()}
	var all []int64
	for _, w := range ws {
		r.Requests += w.requests
		r.OK += w.ok
		r.Shed += w.shed
		r.Errors += w.errs
		r.Late += w.late
		all = append(all, w.lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	r.RPS = float64(r.Requests) / dur.Seconds()
	r.P50Us = percentile(all, 0.50)
	r.P90Us = percentile(all, 0.90)
	r.P99Us = percentile(all, 0.99)
	if n := len(all); n > 0 {
		r.MaxUs = float64(all[n-1]) / 1e3
	}
	return r
}

// driveInproc runs a closed- or open-loop phase against the handler.
// okLat, when non-nil, additionally collects every sampled latency of a
// 200 response (the saturation probe compares served-only tails).
func driveInproc(h http.Handler, path string, conns int, rate float64, dur time.Duration, okLat *[]int64) []workerStats {
	var stop atomic.Bool
	ws := make([]workerStats, conns)
	var okMu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := httptest.NewRequest("GET", path, nil)
			w := &fakeWriter{h: make(http.Header, 4)}
			st := &ws[c]
			st.lat = make([]int64, 0, 1<<18)
			var interval time.Duration
			var next time.Time
			if rate > 0 {
				interval = time.Duration(float64(conns) / rate * 1e9)
				next = time.Now()
			}
			var served []int64
			for !stop.Load() {
				if rate > 0 {
					next = next.Add(interval)
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					} else {
						st.late++
					}
				}
				w.status = 0
				t := time.Now()
				h.ServeHTTP(w, req)
				el := time.Since(t).Nanoseconds()
				st.requests++
				ok := w.status == 0 || w.status == http.StatusOK
				switch {
				case ok:
					st.ok++
				case w.status == http.StatusServiceUnavailable:
					st.shed++
				default:
					st.errs++
				}
				if st.requests%sampleEvery == 0 && len(st.lat) < cap(st.lat) {
					st.lat = append(st.lat, el)
					if ok && okLat != nil {
						served = append(served, el)
					}
				}
			}
			if okLat != nil && len(served) > 0 {
				okMu.Lock()
				*okLat = append(*okLat, served...)
				okMu.Unlock()
			}
		}(c)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return ws
}

// driveHTTP runs a closed-loop phase against a live server.
func driveHTTP(base, path string, conns int, dur time.Duration) []workerStats {
	var stop atomic.Bool
	ws := make([]workerStats, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
			st := &ws[c]
			st.lat = make([]int64, 0, 1<<16)
			url := base + path
			for !stop.Load() {
				t := time.Now()
				resp, err := client.Get(url)
				el := time.Since(t).Nanoseconds()
				st.requests++
				if err != nil {
					st.errs++
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					st.ok++
				case http.StatusServiceUnavailable:
					st.shed++
				default:
					st.errs++
				}
				if st.requests%sampleEvery == 0 && len(st.lat) < cap(st.lat) {
					st.lat = append(st.lat, el)
				}
			}
		}(c)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return ws
}

func p99(ns []int64) float64 {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return percentile(ns, 0.99)
}

func main() {
	var (
		inproc    = flag.Bool("inproc", true, "drive the handler in-process (false requires -url)")
		urlBase   = flag.String("url", "", "drive a running queryd at this base URL instead of in-process")
		simDays   = flag.Int("sim-days", 7, "in-process: days of simulated trace to serve")
		seed      = flag.Int64("seed", 1, "in-process: simulation seed")
		endpoints = flag.String("endpoints", "epoch,summary,availability", "comma-separated endpoint names to drive")
		conns     = flag.Int("conns", 2*runtime.GOMAXPROCS(0), "concurrent load workers")
		duration  = flag.Duration("duration", 2*time.Second, "measurement window per endpoint")
		rate      = flag.Float64("rate", 0, "open-loop aggregate request rate (0 = closed loop)")
		saturate  = flag.Bool("saturate", false, "also run the shedding probe (baseline vs overload p99)")
		floor     = flag.Float64("floor", 0, "exit 1 unless the best closed-loop rps reaches this floor")
		out       = flag.String("o", "", "write the JSON curve to this file")
	)
	flag.Parse()

	doc := Output{Env: Env{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
	}}

	var handler http.Handler
	var store *query.Store
	mode := "http"
	if *urlBase == "" {
		if !*inproc {
			fmt.Fprintln(os.Stderr, "queryload: need -inproc or -url")
			os.Exit(1)
		}
		mode = "inproc"
		fmt.Fprintf(os.Stderr, "queryload: simulating %d days (seed %d)...\n", *simDays, *seed)
		cfg := experiment.Default(*seed)
		cfg.Days = *simDays
		res, err := experiment.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "queryload:", err)
			os.Exit(1)
		}
		store = query.NewStore(analysis.Options{})
		store.Publish(res.Dataset)
		handler = query.NewHandler(query.Config{Store: store})
		warm(handler)
	}

	var best float64
	for _, name := range strings.Split(*endpoints, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		path := "/api/" + name
		var ws []workerStats
		if mode == "inproc" {
			ws = driveInproc(handler, path, *conns, *rate, *duration, nil)
		} else {
			ws = driveHTTP(strings.TrimRight(*urlBase, "/"), path, *conns, *duration)
		}
		r := summarize(mode, name, *conns, *rate, *duration, ws)
		doc.Runs = append(doc.Runs, r)
		if *rate == 0 && r.RPS > best {
			best = r.RPS
		}
		fmt.Fprintf(os.Stderr, "queryload: %-14s %9.0f req/s  p50 %6.1fµs  p99 %7.1fµs  (%d reqs, %d shed, %d errors)\n",
			name, r.RPS, r.P50Us, r.P99Us, r.Requests, r.Shed, r.Errors)
	}

	if *saturate {
		if mode != "inproc" {
			fmt.Fprintln(os.Stderr, "queryload: -saturate is in-process only")
			os.Exit(1)
		}
		doc.Saturation = runSaturation(store, *duration)
		s := doc.Saturation
		verdict := "HELD"
		if !s.Held {
			verdict = "BLEW"
		}
		fmt.Fprintf(os.Stderr, "queryload: saturation: baseline p99 %.1fµs, overload p99 %.1fµs (%.0f%% shed) → %s\n",
			s.BaselineP99Us, s.OverloadP99Us, 100*s.ShedRate, verdict)
	}

	if *out != "" {
		js, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "queryload:", err)
			os.Exit(1)
		}
		js = append(js, '\n')
		if err := os.WriteFile(*out, js, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "queryload:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "queryload: curve written to %s\n", *out)
	}

	if doc.Saturation != nil && !doc.Saturation.Held {
		fmt.Fprintln(os.Stderr, "queryload: FAIL: shedding did not hold the served p99")
		os.Exit(1)
	}
	if *floor > 0 {
		if best < *floor {
			fmt.Fprintf(os.Stderr, "queryload: FAIL: best throughput %.0f req/s below floor %.0f\n", best, *floor)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "queryload: floor ok (%.0f ≥ %.0f req/s)\n", best, *floor)
	}
}

// warm touches every cachable endpoint once so measurement starts on the
// cache-hit path (the cold analysis pass is a per-epoch cost, not a
// per-request one).
func warm(h http.Handler) {
	for _, p := range []string{
		"/api/epoch", "/api/summary", "/api/availability", "/api/labs",
		"/api/machines", "/api/weekly", "/api/equivalence", "/api/uptimes", "/api/heatmap",
	} {
		w := &fakeWriter{h: make(http.Header, 4)}
		h.ServeHTTP(w, httptest.NewRequest("GET", p, nil))
	}
}

// satQueueTimeout is the overload gate's queue deadline. Collapse means
// served tails growing toward this scale (requests riding the queue);
// the verdict therefore allows the overload p99 to exceed 2× a sub-µs
// baseline by scheduler jitter, but never to approach the deadline.
const satQueueTimeout = 5 * time.Millisecond

// runSaturation measures the served-response tail with ample capacity,
// then under an offered load far beyond the gate's slots, and checks the
// shedding guarantee.
func runSaturation(store *query.Store, dur time.Duration) *Saturation {
	procs := runtime.GOMAXPROCS(0)
	baseConns := procs
	overConns := 16 * procs

	baseline := query.NewHandler(query.Config{
		Store: store,
		Gate:  query.NewGate(2*procs, 4*procs, satQueueTimeout),
	})
	warm(baseline)
	var baseLat []int64
	driveInproc(baseline, "/api/summary", baseConns, 0, dur, &baseLat)

	overload := query.NewHandler(query.Config{
		Store: store,
		Gate:  query.NewGate(2*procs, 4*procs, satQueueTimeout),
	})
	warm(overload)
	var overLat []int64
	ws := driveInproc(overload, "/api/summary", overConns, 0, dur, &overLat)

	var reqs, shed int64
	for _, w := range ws {
		reqs += w.requests
		shed += w.shed
	}
	s := &Saturation{
		BaselineP99Us: p99(baseLat),
		OverloadP99Us: p99(overLat),
	}
	if reqs > 0 {
		s.ShedRate = float64(shed) / float64(reqs)
	}
	// Pass when the served tail stays within 2× the pre-saturation tail,
	// with an absolute floor of 1/20 of the queue deadline: on sub-µs
	// baselines the 2× band is narrower than one scheduler wakeup, and
	// the failure being guarded against is deadline-scale queueing.
	band := 2 * s.BaselineP99Us
	if floor := float64(satQueueTimeout.Microseconds()) / 20; band < floor {
		band = floor
	}
	s.Held = s.OverloadP99Us <= band
	return s
}
