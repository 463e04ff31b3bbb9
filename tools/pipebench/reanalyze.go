package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"winlab/internal/analysis"
	"winlab/internal/experiment"
	"winlab/internal/query"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
	"winlab/internal/trace/stream"
)

func archivePath(dir string) string { return filepath.Join(dir, "archive.tb") }

// runReanalyzeArchive is reanalyze's set-up, in a process of its own so
// that the measured phases never hold the simulator's memory: collect
// the trace and archive it as TBv1.
func runReanalyzeArchive(p *phase) error {
	cfg := experiment.Default(p.spec.Seed)
	cfg.Days = p.sh.PaperDays
	path := archivePath(p.spec.Dir)
	var samples int
	// Two repetitions, not three: one costs as much as a paper_batch round.
	err := p.setup(min(2, p.sh.Setups), func() error {
		res, err := experiment.Run(cfg)
		if err != nil {
			return err
		}
		samples = len(res.Dataset.Samples)
		return trace.WriteFileFormat(path, res.Dataset, trace.FormatTB)
	})
	if err != nil {
		return err
	}
	if err := p.digestTB(0, path); err != nil {
		return err
	}
	return p.doctorTB(path, int64(samples))
}

// streamAnalyze is the out-of-core engine: TBv1 file → Results.
func streamAnalyze(tr *tracer, root *openSpan, round int, path string) (*analysis.Results, error) {
	size, err := fileSize(path)
	if err != nil {
		return nil, err
	}
	sp := tr.start(root, round, "trace.stream_open")
	c, err := stream.Open(path)
	if err != nil {
		return nil, err
	}
	sp.end(1, 0)
	defer c.Close()

	sp = tr.start(root, round, "analysis.allstream")
	res, err := analysis.AllStream(c, analysis.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	sp.end(int64(c.DeclaredSamples()), size)
	return res, nil
}

// runReanalyzeStream is phase A: nothing but the streaming engine runs in
// this process, so its peak RSS is the out-of-core promise.
func runReanalyzeStream(p *phase) error {
	path := archivePath(p.spec.Dir)
	err := p.setup(p.sh.Setups, func() error {
		_, err := streamAnalyze(nil, nil, 0, path)
		return err
	})
	if err != nil {
		return err
	}
	return p.measure(func(round int, root *openSpan) (func() error, error) {
		res, err := streamAnalyze(p.tr, root, round, path)
		if err != nil {
			return nil, err
		}
		return func() error {
			p.samples = res.Table2.Both.Samples
			p.check("stream-analysed-samples", p.samples > 0)
			return nil
		}, nil
	})
}

// snapshotEndpoints are the nine per-epoch cached endpoints.
var snapshotEndpoints = []string{
	"/api/epoch", "/api/summary", "/api/availability", "/api/labs", "/api/machines",
	"/api/weekly", "/api/equivalence", "/api/uptimes", "/api/heatmap",
}

// memWriter is an in-process http.ResponseWriter that keeps the body.
type memWriter struct {
	h      http.Header
	status int
	body   []byte
}

func newMemWriter() *memWriter { return &memWriter{h: make(http.Header, 4)} }

func (w *memWriter) Header() http.Header { return w.h }
func (w *memWriter) WriteHeader(c int)   { w.status = c }
func (w *memWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, b...)
	return len(b), nil
}
func (w *memWriter) reset() {
	w.status, w.body = 0, w.body[:0]
	for k := range w.h {
		delete(w.h, k)
	}
}

// inprocGet serves one GET through the handler without a socket.
func inprocGet(h http.Handler, w *memWriter, req *http.Request) int {
	w.reset()
	h.ServeHTTP(w, req)
	return w.status
}

func mustRequest(path string) *http.Request {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		panic(err) // the paths are constants of this file
	}
	return req
}

// batchOut is what one batch round produced.
type batchOut struct {
	res     *analysis.Results
	samples int
	epoch   uint64
	bodies  int // endpoint bodies that came back 200 carrying the epoch
	bytes   int64
}

// batchAnalyze is the in-memory engine: TBv1 file → Dataset →
// analysis.All → publish → first GET of the nine endpoint bodies.
func batchAnalyze(tr *tracer, root *openSpan, round int, path string, store *query.Store, h http.Handler) (*batchOut, error) {
	size, err := fileSize(path)
	if err != nil {
		return nil, err
	}
	sp := tr.start(root, round, "trace.read")
	ds, err := trace.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sp.end(int64(len(ds.Samples)), size)

	sp = tr.start(root, round, "analysis.all")
	res := analysis.All(ds, analysis.Options{})
	sp.end(int64(len(ds.Samples)), 0)

	sp = tr.start(root, round, "query.publish")
	epoch := store.Publish(ds)
	sp.end(1, 0)

	out := &batchOut{res: res, samples: len(ds.Samples), epoch: epoch}
	sp = tr.start(root, round, "query.cold_sweep")
	w := newMemWriter()
	for _, ep := range snapshotEndpoints {
		if inprocGet(h, w, mustRequest(ep)) == http.StatusOK && carriesEpoch(w.body, w.h.Get("Etag"), epoch) {
			out.bodies++
		}
		out.bytes += int64(len(w.body))
	}
	sp.end(int64(len(snapshotEndpoints)), out.bytes)
	return out, nil
}

// runReanalyzeBatch is phase B. After the timed rounds it runs the
// streaming engine once more on the same bytes and diffs the two engines'
// results with the repo's own comparison.
func runReanalyzeBatch(p *phase) error {
	path := archivePath(p.spec.Dir)
	store := query.NewStore(analysis.Options{})
	h := query.NewHandler(query.Config{Store: store})
	err := p.setup(p.sh.Setups, func() error {
		_, err := batchAnalyze(nil, nil, 0, path, store, h)
		return err
	})
	if err != nil {
		return err
	}
	var last *batchOut
	err = p.measure(func(round int, root *openSpan) (func() error, error) {
		out, err := batchAnalyze(p.tr, root, round, path, store, h)
		if err != nil {
			return nil, err
		}
		last = out
		return func() error {
			p.res.Attempted += int64(len(snapshotEndpoints))
			p.res.Failed += int64(len(snapshotEndpoints) - out.bodies)
			p.check("batch-analysed-all-samples", out.res.Table2.Both.Samples == out.samples)
			p.res.Metrics["query.epochs"] = 1
			p.samples = out.samples
			return nil
		}, nil
	})
	if err != nil {
		return err
	}
	streamed, err := streamAnalyze(nil, nil, 0, path)
	if err != nil {
		return err
	}
	diff := check.FirstDiff(last.res, streamed)
	p.check("allstream-equals-all", diff == "")
	if diff != "" {
		fmt.Fprintf(os.Stderr, "pipebench: AllStream differs from analysis.All: %s\n", diff)
	}
	return nil
}
