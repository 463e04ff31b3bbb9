package main

import (
	"bytes"
	"net/http"
	"sort"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/anomaly"
	"winlab/internal/ddc"
	"winlab/internal/experiment"
	"winlab/internal/lab"
	"winlab/internal/machine"
	"winlab/internal/probe"
	"winlab/internal/query"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
	"winlab/internal/trace/stream"
)

// The layers phase times stages the pipeline does not expose from
// outside as fixed-count loops over each layer's public functions. Its
// shapes do not depend on the workload, so the numbers it yields say how
// fast a layer is; the stage table says how much a workload uses it.

// loopNS runs fn n times and returns nanoseconds and heap allocations per
// call.
func loopNS(n int, fn func(i int)) (ns, allocs float64) {
	m0, t := heapAllocObjects(), time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t)
	return float64(d.Nanoseconds()) / float64(n), float64(heapAllocObjects()-m0) / float64(n)
}

// repsMS runs fn reps times and returns the median milliseconds of one
// call. prepare, when set, runs before each call outside the timing.
func repsMS(reps int, prepare func(), fn func()) float64 {
	ms := make([]float64, reps)
	for i := range ms {
		if prepare != nil {
			prepare()
		}
		t := time.Now()
		fn()
		ms[i] = float64(time.Since(t).Nanoseconds()) / 1e6
	}
	return median(ms)
}

// nullWriter is an http.ResponseWriter that keeps nothing but the status
// and the byte count: the warm-path loops must not measure a body copy.
type nullWriter struct {
	h      http.Header
	status int
	n      int64
}

func (w *nullWriter) Header() http.Header { return w.h }
func (w *nullWriter) WriteHeader(c int)   { w.status = c }
func (w *nullWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}

func cloneDataset(d *trace.Dataset, samples []trace.Sample) *trace.Dataset {
	return &trace.Dataset{
		Start: d.Start, End: d.End, Period: d.Period,
		Machines:   append([]trace.MachineInfo(nil), d.Machines...),
		Iterations: append([]trace.Iteration(nil), d.Iterations...),
		Samples:    append([]trace.Sample(nil), samples...),
	}
}

func runLayers(p *phase) error {
	m := p.res.Metrics
	sh := p.sh

	// probe: render and parse over a fixed snapshot set — the whole
	// paper fleet powered on, probed an hour after boot.
	fleet := lab.BuildPaperFleet(p.spec.Seed)
	at := time.Date(2003, 10, 6, 8, 0, 0, 0, time.UTC)
	var snaps []machine.Snapshot
	var reports [][]byte
	var reportBytes int
	for _, mc := range fleet.Machines {
		mc.PowerOn(at)
		sn, _ := mc.Snapshot(at.Add(time.Hour))
		snaps = append(snaps, sn)
		reports = append(reports, probe.AppendRender(nil, sn))
		reportBytes += len(reports[len(reports)-1])
	}
	buf := make([]byte, 0, 1024)
	m["probe.render_ns"], m["probe.render_allocs"] = loopNS(sh.LoopN, func(i int) {
		buf = probe.AppendRender(buf[:0], snaps[i%len(snaps)])
	})
	parser := probe.NewParser()
	parseErrs := 0
	m["probe.parse_ns"], m["probe.parse_allocs"] = loopNS(sh.LoopN, func(i int) {
		if _, err := parser.ParseBytes(reports[i%len(reports)]); err != nil {
			parseErrs++
		}
	})
	m["probe.report_bytes"] = float64(reportBytes)
	p.check("probe-reports-parse", parseErrs == 0)

	// ddc: full-fleet sweeps (Direct.ExecAppend + DatasetSink.Post) into
	// one sink, then the clone a snapshot publish takes of that sink.
	period := 15 * time.Minute
	now := at.Add(time.Hour)
	exec := &ddc.Direct{Source: lab.Source{Fleet: fleet}, Now: func() time.Time { return now }}
	sink := ddc.NewDatasetSink(at, at.Add(time.Duration(sh.LayerSweeps+8)*period), period, nil)
	sweepUS := make([]float64, sh.LayerSweeps)
	m0 := heapAllocObjects()
	for s := range sweepUS {
		now = at.Add(time.Hour + time.Duration(s)*period)
		t := time.Now()
		for _, mc := range fleet.Machines {
			out, err := exec.ExecAppend(buf[:0], mc.ID)
			sink.Post(s, mc.ID, out, err)
			if out != nil {
				buf = out[:0]
			}
		}
		sink.OnIteration(ddc.IterationInfo{Iter: s, Start: now, End: now, Attempted: fleet.Size(), Responded: fleet.Size()})
		sweepUS[s] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	m["ddc.sweep_allocs"] = float64(heapAllocObjects()-m0) / float64(sh.LayerSweeps)
	m["ddc.sweep_us"] = median(sweepUS)
	var cloned *trace.Dataset
	m["ddc.sink_clone_ms"] = repsMS(sh.Reps, nil, func() { cloned = sink.CloneDataset() })
	p.check("sink-clone-complete", len(cloned.Samples) == sh.LayerSweeps*fleet.Size())
	cloned, sink = nil, nil

	// The remaining loops run over a collected trace, in the order the
	// collector committed it (iteration-major), which is what a snapshot
	// clone hands the query layer.
	cfg := experiment.Default(p.spec.Seed)
	cfg.Days = sh.LayerDays
	res, err := experiment.Run(cfg)
	if err != nil {
		return err
	}
	ds := res.Dataset
	commit := append([]trace.Sample(nil), ds.Samples...)
	sort.SliceStable(commit, func(i, j int) bool { return commit[i].Iter < commit[j].Iter })

	// anomaly: the detectors over the commit stream.
	det := anomaly.New(anomaly.DefaultConfig(), nil)
	det.SetMachines(ds.Machines)
	t := time.Now()
	next := 0
	for _, it := range ds.Iterations {
		for next < len(commit) && commit[next].Iter <= it.Iter {
			det.Sample(&commit[next])
			next++
		}
		det.Iteration(it)
	}
	m["anomaly.sample_ns"] = float64(time.Since(t).Nanoseconds()) / float64(len(commit))

	// trace: freezing (sort + index) a commit-ordered clone.
	var clone *trace.Dataset
	fresh := func() { clone = cloneDataset(ds, commit) }
	m["trace.freeze_ms"] = repsMS(sh.Reps, fresh, func() { clone.Freeze() })

	// analysis: the batch engine on the frozen dataset, the streaming
	// engine on its TBv1 bytes, and the two heaviest single artefacts.
	ds.Freeze()
	var all *analysis.Results
	a0 := heapAllocObjects()
	m["analysis.all_ms"] = repsMS(sh.Reps, nil, func() { all = analysis.All(ds, analysis.Options{}) })
	m["analysis.all_allocs"] = float64(heapAllocObjects()-a0) / float64(sh.Reps)
	var tb bytes.Buffer
	if err := trace.WriteBinary(&tb, ds); err != nil {
		return err
	}
	var streamErr error
	var streamed *analysis.Results
	allStream := func(workers int) func() {
		return func() {
			c, err := stream.New(bytes.NewReader(tb.Bytes()))
			if err == nil {
				streamed, err = analysis.AllStream(c, analysis.Options{Workers: workers})
			}
			if err != nil {
				streamErr = err
			}
		}
	}
	m["analysis.allstream_w1_ms"] = repsMS(sh.Reps, nil, allStream(1))
	p.check("allstream-equals-all", streamErr == nil && check.FirstDiff(all, streamed) == "")
	m["analysis.allstream_w2_ms"] = repsMS(sh.Reps, nil, allStream(2))
	if streamErr != nil {
		return streamErr
	}
	m["analysis.table2_ms"] = repsMS(sh.Reps, nil, func() { analysis.MainResults(ds, analysis.DefaultForgottenThreshold) })
	m["analysis.heatmap_ms"] = repsMS(sh.Reps, nil, func() { analysis.Heatmap(ds, analysis.DefaultForgottenThreshold) })

	// query: publish, the cold build and encodes of a new epoch, then the
	// warm paths in process.
	store := query.NewStore(analysis.Options{})
	events := query.NewEventLog(0, store.Epoch)
	events.Load(det.Ring().Snapshot(), 0)
	h := query.NewHandler(query.Config{Store: store, Events: events})
	publishUS := make([]float64, sh.Reps)
	buildMS := make([]float64, sh.Reps)
	encodeMS := make([]float64, sh.Reps)
	w := &nullWriter{h: make(http.Header, 4)}
	reqs := make([]*http.Request, len(snapshotEndpoints))
	for i, ep := range snapshotEndpoints {
		reqs[i] = mustRequest(ep)
	}
	cold := 0
	for r := 0; r < sh.Reps; r++ {
		fresh()
		t := time.Now()
		store.Publish(clone)
		publishUS[r] = float64(time.Since(t).Nanoseconds()) / 1e3
		t = time.Now()
		store.Current().Aggregates()
		buildMS[r] = float64(time.Since(t).Nanoseconds()) / 1e6
		w.n = 0
		t = time.Now()
		for _, req := range reqs {
			w.status = 0
			h.ServeHTTP(w, req)
			if w.status == 0 || w.status == http.StatusOK {
				cold++
			}
		}
		encodeMS[r] = float64(time.Since(t).Nanoseconds()) / 1e6
	}
	m["query.publish_us"] = median(publishUS)
	m["query.cold_build_ms"] = median(buildMS)
	m["query.cold_encode_ms"] = median(encodeMS)
	m["query.body_bytes"] = float64(w.n)
	p.check("cold-endpoints-served", cold == sh.Reps*len(reqs))

	warmFail := 0
	m["query.warm_inproc_ns"], m["query.warm_inproc_allocs"] = loopNS(sh.LoopN, func(i int) {
		w.status = 0
		h.ServeHTTP(w, reqs[i%len(reqs)])
		if w.status != 0 && w.status != http.StatusOK {
			warmFail++
		}
	})
	etag := w.h.Get("Etag")
	reval := make([]*http.Request, len(reqs))
	for i, ep := range snapshotEndpoints {
		reval[i] = mustRequest(ep)
		reval[i].Header.Set("If-None-Match", etag)
	}
	m["query.revalidate_ns"], _ = loopNS(sh.LoopN, func(i int) {
		w.status = 0
		h.ServeHTTP(w, reval[i%len(reval)])
		if w.status != http.StatusNotModified {
			warmFail++
		}
	})
	evReq := mustRequest("/api/events?since=0")
	evNS, _ := loopNS(sh.Reps*20, func(int) {
		w.status = 0
		h.ServeHTTP(w, evReq)
		if w.status != 0 && w.status != http.StatusOK {
			warmFail++
		}
	})
	m["query.events_us"] = evNS / 1e3
	p.check("warm-paths-served", warmFail == 0)
	p.res.Attempted += int64(2*sh.LoopN + sh.Reps*20)
	p.res.Failed += int64(warmFail)
	return nil
}
