package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/anomaly"
	"winlab/internal/experiment"
	"winlab/internal/query"
	"winlab/internal/trace"
)

// carriesEpoch reports whether a snapshot response belongs to epoch: its
// ETag is "<epoch>-<fingerprint>" and its body's Meta block names it.
func carriesEpoch(body []byte, etag string, epoch uint64) bool {
	e := strconv.FormatUint(epoch, 10)
	if len(etag) < len(e)+2 || etag[:len(e)+2] != `"`+e+"-" {
		return false
	}
	return bytes.Contains(body, []byte(`"epoch":`+e+`,`))
}

// conn is one keep-alive client connection of the load generator.
type conn struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{base: base, client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// get issues one GET and reads the whole body into c.buf.
func (c *conn) get(path, ifNoneMatch string) (status int, etag string, err error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, "", err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Etag"), err
}

// burst is this connection's half of a closed-loop burst: n requests
// back to back, each drawn from the seeded mix — 70 % warm GET of a
// cached endpoint, 20 % If-None-Match revalidation (304), 10 %
// /api/events?since=. It returns each request's latency in µs and the
// number that did not come back 200 or 304 as the mix expects.
func (c *conn) burst(rng *rand.Rand, n int, epoch uint64, etag string, lat []float64) ([]float64, int) {
	failed := 0
	since := "/api/events?since=" + strconv.FormatUint(epoch-1, 10)
	for i := 0; i < n; i++ {
		roll := rng.Intn(10)
		ep := snapshotEndpoints[rng.Intn(len(snapshotEndpoints))]
		want := http.StatusOK
		t := time.Now()
		var status int
		var err error
		switch {
		case roll < 7:
			status, _, err = c.get(ep, "")
		case roll < 9:
			want = http.StatusNotModified
			status, _, err = c.get(ep, etag)
		default:
			status, _, err = c.get(since, "")
		}
		lat = append(lat, float64(time.Since(t).Nanoseconds())/1e3)
		if err != nil || status != want {
			failed++
		}
	}
	return lat, failed
}

// liveRound is the state of one live_publish round.
type liveRound struct {
	p     *phase
	tr    *tracer // nil in the warm-up round
	round int
	exp   *openSpan // the experiment.run span; publishes happen inside it

	store *query.Store
	conns [2]*conn

	epochs   int
	freshMS  []float64
	latUS    []float64
	burstS   float64
	requests int
	failed   int
	stale    int // fresh-sweep responses that did not carry the new epoch
}

// onSnapshot is the collector's publish hook. The collector is paused
// inside it, as it is inside labmon's: the new epoch is published, swept
// once cold over the socket, then hit with the warm burst.
func (lr *liveRound) onSnapshot(ds *trace.Dataset) {
	tr, t0 := lr.tr, time.Now()
	sp := tr.start(lr.exp, lr.round, "query.publish")
	epoch := lr.store.Publish(ds)
	sp.end(1, 0)
	lr.epochs++

	sp = tr.start(lr.exp, lr.round, "query.cold_sweep")
	var etag string
	var swept int64
	for _, ep := range snapshotEndpoints {
		status, tag, err := lr.conns[0].get(ep, "")
		if err != nil || status != http.StatusOK || !carriesEpoch(lr.conns[0].buf.Bytes(), tag, epoch) {
			lr.stale++
		}
		etag = tag
		swept += int64(lr.conns[0].buf.Len())
	}
	lr.freshMS = append(lr.freshMS, float64(time.Since(t0).Nanoseconds())/1e6)
	sp.end(int64(len(snapshotEndpoints)), swept)

	sp = tr.start(lr.exp, lr.round, "query.warm_burst")
	per := lr.p.sh.Burst / len(lr.conns)
	var wg sync.WaitGroup
	var lats [len(lr.conns)][]float64
	var fails [len(lr.conns)]int
	t := time.Now()
	for i, c := range lr.conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(lr.p.spec.Seed<<20 ^ int64(epoch)<<1 ^ int64(i)))
			lats[i], fails[i] = c.burst(rng, per, epoch, etag, make([]float64, 0, per))
		}(i, c)
	}
	wg.Wait()
	lr.burstS += time.Since(t).Seconds()
	for i := range lats {
		lr.latUS = append(lr.latUS, lats[i]...)
		lr.failed += fails[i]
	}
	lr.requests += per * len(lr.conns)
	sp.end(int64(per*len(lr.conns)), 0)
}

// liveOut is what one live_publish round produced.
type liveOut struct {
	lr      *liveRound
	res     *experiment.Result
	events  uint64
	parse   int
	samples int
}

// liveRoundRun does what `labmon -query-addr` does for days days: a
// collection run with the anomaly detectors tapped in and a snapshot
// published to a served query.Store every 24 iterations.
func liveRoundRun(p *phase, tr *tracer, root *openSpan, round, days int) (*liveOut, error) {
	cfg := experiment.Default(p.spec.Seed)
	cfg.Days = days
	cfg.Detect = anomaly.New(anomaly.DefaultConfig(), nil)
	cfg.SnapshotEvery = 24

	store := query.NewStore(analysis.Options{})
	events := query.NewEventLog(0, store.Epoch)
	detach := events.Attach(cfg.Detect.Ring())
	defer detach()
	h := query.NewHandler(query.Config{Store: store, Events: events})
	srv, err := query.Serve("127.0.0.1:0", query.Root(h, nil, nil))
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	lr := &liveRound{p: p, tr: tr, round: round, store: store}
	for i := range lr.conns {
		lr.conns[i] = newConn(srv.URL())
		defer lr.conns[i].close()
	}
	cfg.OnSnapshot = lr.onSnapshot

	lr.exp = tr.start(root, round, "experiment.run")
	res, err := experiment.Run(cfg)
	if err != nil {
		return nil, err
	}
	lr.exp.end(int64(len(res.Dataset.Samples)), 0)

	out := &liveOut{lr: lr, res: res, events: cfg.Detect.Ring().Total(), samples: len(res.Dataset.Samples)}
	for _, it := range res.Dataset.Iterations {
		out.parse += it.ParseErrors
	}
	return out, nil
}

func runLivePublish(p *phase) error {
	err := p.setup(p.sh.Setups, func() error {
		_, err := liveRoundRun(p, nil, nil, 0, p.sh.LiveWarmDays)
		return err
	})
	if err != nil {
		return err
	}

	var fresh, lat []float64
	var burstS float64
	var requests int
	err = p.measure(func(round int, root *openSpan) (func() error, error) {
		out, err := liveRoundRun(p, p.tr, root, round, p.sh.LiveDays)
		if err != nil {
			return nil, err
		}
		return func() error {
			lr := out.lr
			fresh = append(fresh, lr.freshMS...)
			lat = append(lat, lr.latUS...)
			burstS += lr.burstS
			requests += lr.requests
			sweeps := lr.epochs * len(snapshotEndpoints)
			p.res.Attempted += int64(out.res.Collector.Attempts + lr.requests + sweeps)
			p.res.Failed += int64(out.parse + lr.failed + lr.stale)
			p.check("fresh-sweeps-carry-new-epoch", lr.stale == 0)
			p.check("epochs-published", lr.epochs > 0 && uint64(lr.epochs) == lr.store.Epoch())
			p.check("collector-samples", out.res.Collector.Samples == out.samples)
			p.countCollector(out.res.Collector, out.parse)
			p.res.Metrics["query.epochs"] = float64(lr.epochs)
			p.res.Metrics["anomaly.events"] = float64(out.events)
			p.samples = out.samples
			p.res.Checks.Samples = int64(out.samples)
			p.res.Checks.Iterations = int64(len(out.res.Dataset.Iterations))
			return nil
		}, nil
	})
	if err != nil {
		return err
	}
	if len(fresh) == 0 || requests == 0 {
		return fmt.Errorf("no epoch was published in %d days", p.sh.LiveDays)
	}
	sort.Float64s(fresh)
	sort.Float64s(lat)
	m := p.res.Metrics
	m["fresh_p50_ms"] = percentile(fresh, 0.50)
	m["fresh_p90_ms"] = percentile(fresh, 0.90)
	m["fresh_samples"] = float64(len(fresh))
	m["serve_p50_us"] = percentile(lat, 0.50)
	m["serve_p99_us"] = percentile(lat, 0.99)
	m["serve_samples"] = float64(len(lat))
	m["serve_req_per_s"] = float64(requests) / burstS
	if p.spec.Trace {
		cfg := experiment.Default(p.spec.Seed)
		cfg.Days = p.sh.LiveDays
		p.modelOnly(cfg)
	}
	return nil
}
