package main

import (
	"os"
	"path/filepath"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/behavior"
	"winlab/internal/ddc"
	"winlab/internal/experiment"
	"winlab/internal/lab"
	"winlab/internal/query"
	"winlab/internal/sim"
	"winlab/internal/trace"
	"winlab/internal/trace/stream"
)

// paperOut is what one paper_batch round produced.
type paperOut struct {
	stats   ddc.Stats
	parse   int // reports that arrived but did not parse
	samples int
	epoch   uint64
	res     *analysis.Results
}

// paperRound is the paper's run as one pipeline: collect with the serial
// collector, write TBv1, analyse it out of core, publish the results.
func paperRound(tr *tracer, root *openSpan, round int, cfg experiment.Config, path string, store *query.Store) (*paperOut, error) {
	sp := tr.start(root, round, "experiment.run")
	res, err := experiment.Run(cfg)
	if err != nil {
		return nil, err
	}
	sp.end(int64(len(res.Dataset.Samples)), 0)

	sp = tr.start(root, round, "trace.write_tb")
	if err := trace.WriteFileFormat(path, res.Dataset, trace.FormatTB); err != nil {
		return nil, err
	}
	size, err := fileSize(path)
	if err != nil {
		return nil, err
	}
	sp.end(int64(len(res.Dataset.Samples)), size)

	sp = tr.start(root, round, "trace.stream_open")
	c, err := stream.Open(path)
	if err != nil {
		return nil, err
	}
	sp.end(1, 0)
	defer c.Close()

	sp = tr.start(root, round, "analysis.allstream")
	results, err := analysis.AllStream(c, analysis.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	sp.end(int64(c.DeclaredSamples()), size)

	sp = tr.start(root, round, "query.publish")
	epoch := store.PublishResults(results, query.Info{
		Start: c.Start(), End: c.End(), Period: c.Period(),
		Iterations: len(c.Iterations()), Samples: int(c.DeclaredSamples()), Machines: len(c.Machines()),
	})
	sp.end(1, 0)

	out := &paperOut{stats: res.Collector, samples: len(res.Dataset.Samples), epoch: epoch, res: results}
	for _, it := range res.Dataset.Iterations {
		out.parse += it.ParseErrors
	}
	return out, nil
}

func runPaperBatch(p *phase) error {
	path := filepath.Join(p.spec.Dir, "paper.tb")
	store := query.NewStore(analysis.Options{})
	cfg := experiment.Default(p.spec.Seed)
	cfg.Days = p.sh.PaperDays

	err := p.setup(p.sh.Setups, func() error {
		warm := cfg
		warm.Days = p.sh.WarmDays
		_, err := paperRound(nil, nil, 0, warm, path, store)
		return err
	})
	if err != nil {
		return err
	}

	err = p.measure(func(round int, root *openSpan) (func() error, error) {
		before := store.Epoch()
		out, err := paperRound(p.tr, root, round, cfg, path, store)
		if err != nil {
			return nil, err
		}
		return func() error {
			p.res.Attempted += int64(out.stats.Attempts)
			p.res.Failed += int64(out.parse)
			p.check("collector-samples", out.stats.Samples == out.samples)
			p.check("publish-advances-epoch", out.epoch == before+1 && store.Epoch() == out.epoch)
			p.check("analysed-all-samples", out.res.Table2.Both.Samples == out.samples)
			p.countCollector(out.stats, out.parse)
			p.res.Metrics["query.epochs"] = 1
			p.samples = out.samples
			return p.digestTB(round, path)
		}, nil
	})
	if err != nil {
		return err
	}
	if err := p.doctorTB(path, int64(p.samples)); err != nil {
		return err
	}
	if p.spec.Trace {
		p.modelOnly(cfg)
	}
	return nil
}

// countCollector records the collector's exact per-round counts.
// Timeouts are probes that got no report: powered-off machines.
func (p *phase) countCollector(st ddc.Stats, parseErrs int) {
	p.res.Metrics["ddc.samples"] = float64(st.Samples)
	p.res.Metrics["ddc.attempts"] = float64(st.Attempts)
	p.res.Metrics["ddc.timeouts"] = float64(st.Attempts - st.Samples - parseErrs)
}

// modelOnly times the part of a collection run that is not the
// collector: build the fleet, install the behaviour model, run the
// engine to the end with nothing probing. The collector's own cost is
// the experiment.run span minus this.
func (p *phase) modelOnly(cfg experiment.Config) {
	var secs []float64
	var fired int64
	for i := 0; i < 3; i++ {
		t := time.Now()
		fleet := lab.Build(cfg.Labs, cfg.Seed, cfg.DiskLife)
		model := behavior.NewModel(cfg.Behavior, fleet)
		eng := sim.New(cfg.Start)
		model.Install(eng, cfg.Start, cfg.End())
		eng.RunUntil(cfg.End())
		secs = append(secs, time.Since(t).Seconds())
		fired = eng.Fired()
	}
	s := median(secs)
	p.res.Metrics["behavior.model_only_s"] = s
	p.res.Metrics["sim.events"] = float64(fired)
	p.res.Metrics["sim.events_per_s"] = float64(fired) / s
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
