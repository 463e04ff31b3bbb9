package ddc

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"winlab/internal/machine"
	"winlab/internal/probe"
	"winlab/internal/sim"
	"winlab/internal/smart"
	"winlab/internal/telemetry"
)

var t0 = time.Date(2003, 10, 6, 8, 0, 0, 0, time.UTC)

func TestConfigValidate(t *testing.T) {
	ok := Config{Machines: []string{"M1"}, Period: time.Minute}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cases := []Config{
		{Period: time.Minute},                  // no machines
		{Machines: []string{"M1"}},             // no period
		{Machines: []string{"M1"}, Period: -1}, // negative period
		{Machines: []string{"M1"}, Period: time.Minute, Outages: []Outage{{Start: t0, End: t0}}},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestOutageContains(t *testing.T) {
	o := Outage{Start: t0, End: t0.Add(time.Hour)}
	if !o.Contains(t0) {
		t.Error("start not contained")
	}
	if o.Contains(t0.Add(time.Hour)) {
		t.Error("end contained (should be exclusive)")
	}
	if o.Contains(t0.Add(-time.Second)) {
		t.Error("before start contained")
	}
}

// fakeExec answers for a configurable set of machines.
type fakeExec struct {
	up      map[string]bool
	calls   []string
	payload func(id string) []byte
}

func (f *fakeExec) Exec(_ context.Context, dst []byte, id string) ([]byte, error) {
	f.calls = append(f.calls, id)
	if !f.up[id] {
		return nil, ErrUnreachable
	}
	if f.payload != nil {
		return append(dst, f.payload(id)...), nil
	}
	return append(dst, "data:"+id...), nil
}

// oneShard describes the paper's serial coordinator: a ShardedCollector
// whose single shard is Cfg.Machines. Post and OnIteration run on the
// shard goroutine; run joins it, so tests may read what the hooks wrote
// once run returns.
type oneShard struct {
	Cfg         Config
	Exec        Executor
	Post        PostCollect
	OnIteration IterationFunc
	Telemetry   *telemetry.Registry
}

// run installs the collector on eng over [start, end), runs the engine
// dry and joins the shard.
func (o oneShard) run(t *testing.T, eng *sim.Engine, start, end time.Time) *ShardedCollector {
	t.Helper()
	c := &ShardedCollector{
		Cfg:       o.Cfg,
		Exec:      o.Exec,
		Shards:    []ShardSpec{{Machines: o.Cfg.Machines, Post: o.Post, OnIteration: o.OnIteration}},
		Telemetry: o.Telemetry,
	}
	if err := c.Install(eng, start, end); err != nil {
		t.Fatal(err)
	}
	for eng.Step() {
	}
	c.Finish()
	return c
}

func TestCollectorIterates(t *testing.T) {
	eng := sim.New(t0)
	exec := &fakeExec{up: map[string]bool{"M1": true, "M2": false, "M3": true}}
	var posts []string
	var postErrs int
	var iterDone int
	end := t0.Add(46 * time.Minute) // iterations at 0, 15, 30, 45
	coll := oneShard{
		Cfg: Config{
			Machines:    []string{"M1", "M2", "M3"},
			Period:      15 * time.Minute,
			LatencyOK:   func() time.Duration { return time.Second },
			LatencyFail: func() time.Duration { return 4 * time.Second },
		},
		Exec: exec,
		Post: func(iter int, id string, out []byte, err error) {
			if err != nil {
				postErrs++
				return
			}
			posts = append(posts, fmt.Sprintf("%d/%s", iter, id))
		},
		OnIteration: func(info IterationInfo) {
			iterDone++
			if info.Attempted != 3 || info.Responded != 2 {
				t.Errorf("iteration %d: attempted=%d responded=%d", info.Iter, info.Attempted, info.Responded)
			}
			if info.Probes != 3 || info.Retries != 0 {
				t.Errorf("iteration %d: probes=%d retries=%d", info.Iter, info.Probes, info.Retries)
			}
		},
	}.run(t, eng, t0, end)
	st := coll.Stats()
	if st.Iterations != 4 || st.Attempts != 12 || st.Samples != 8 || st.Skipped != 0 {
		t.Errorf("stats = %+v", st)
	}
	if iterDone != 4 {
		t.Errorf("OnIteration fired %d times", iterDone)
	}
	if len(posts) != 8 || postErrs != 4 {
		t.Errorf("posts = %d, errors = %d", len(posts), postErrs)
	}
	// Post-collection runs in machine order within each iteration.
	if want := []string{"0/M1", "0/M3", "1/M1", "1/M3"}; !reflect.DeepEqual(posts[:4], want) {
		t.Errorf("post order: %v, want %v", posts[:4], want)
	}
	// Probing is sequential and ordered.
	if exec.calls[0] != "M1" || exec.calls[1] != "M2" || exec.calls[2] != "M3" {
		t.Errorf("probe order: %v", exec.calls[:3])
	}
}

func TestCollectorProbesSpreadInTime(t *testing.T) {
	eng := sim.New(t0)
	// The executor runs on the engine goroutine at the probe's scheduled
	// instant, so it is where a probe's simulated time is observable.
	var times []time.Time
	exec := &fakeExec{
		up: map[string]bool{"M1": true, "M2": true, "M3": true},
		payload: func(id string) []byte {
			times = append(times, eng.Now())
			return []byte("data:" + id)
		},
	}
	oneShard{
		Cfg: Config{
			Machines:  []string{"M1", "M2", "M3"},
			Period:    15 * time.Minute,
			LatencyOK: func() time.Duration { return 2 * time.Second },
		},
		Exec: exec,
	}.run(t, eng, t0, t0.Add(time.Minute))
	if len(times) != 3 {
		t.Fatalf("probes = %d", len(times))
	}
	// Each subsequent probe is delayed by the previous latency.
	if !times[1].Equal(t0.Add(2*time.Second)) || !times[2].Equal(t0.Add(4*time.Second)) {
		t.Errorf("probe times: %v", times)
	}
}

func TestCollectorOutages(t *testing.T) {
	eng := sim.New(t0)
	exec := &fakeExec{up: map[string]bool{"M1": true}}
	coll := oneShard{
		Cfg: Config{
			Machines: []string{"M1"},
			Period:   15 * time.Minute,
			Outages:  []Outage{{Start: t0.Add(10 * time.Minute), End: t0.Add(40 * time.Minute)}},
		},
		Exec: exec,
	}.run(t, eng, t0, t0.Add(time.Hour))
	st := coll.Stats()
	// Iterations at 0, 15, 30, 45: those at 15 and 30 are inside the outage.
	if st.Iterations != 2 || st.Skipped != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCollectorRejectsBadConfig(t *testing.T) {
	coll := &ShardedCollector{Exec: &fakeExec{}, Shards: []ShardSpec{{Machines: []string{"M1"}}}}
	if err := coll.Install(sim.New(t0), t0, t0.Add(time.Hour)); err == nil {
		t.Error("bad config accepted")
	}
}

// memSource serves snapshots for one machine.
type memSource struct{ m *machine.Machine }

func (s memSource) Snapshot(id string, at time.Time) (machine.Snapshot, bool) {
	if s.m == nil || s.m.ID != id {
		return machine.Snapshot{}, false
	}
	return s.m.Snapshot(at)
}

func newMachine(id string) *machine.Machine {
	hw := machine.Hardware{CPUModel: "P4", CPUGHz: 2.4, RAMMB: 512, DiskGB: 74.5}
	return machine.New(id, "L01", hw, smart.NewDisk("D-"+id, 74.5))
}

func TestDirectExecutor(t *testing.T) {
	m := newMachine("M1")
	m.PowerOn(t0)
	now := t0.Add(10 * time.Minute)
	d := &Direct{Source: memSource{m}, Now: func() time.Time { return now }}

	out, err := d.Exec(context.Background(), nil, "M1")
	if err != nil {
		t.Fatal(err)
	}
	sn, err := probe.NewParser().ParseBytes(out)
	if err != nil {
		t.Fatalf("direct executor produced unparseable output: %v", err)
	}
	if sn.ID != "M1" || sn.Uptime != 10*time.Minute {
		t.Errorf("parsed %+v", sn)
	}

	if _, err := d.Exec(context.Background(), nil, "M2"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("unknown machine error = %v", err)
	}
	m.PowerOff(now)
	now = now.Add(time.Minute)
	if _, err := d.Exec(context.Background(), nil, "M1"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("powered-off machine error = %v", err)
	}
}

func TestDatasetSink(t *testing.T) {
	m := newMachine("M1")
	m.PowerOn(t0)
	sn, _ := m.Snapshot(t0.Add(5 * time.Minute))
	sink := NewDatasetSink(t0, t0.AddDate(0, 0, 1), 15*time.Minute, nil)

	sink.Post(0, "M1", probe.AppendRender(nil, sn), nil)
	sink.Post(0, "M2", nil, ErrUnreachable) // failures produce no sample
	sink.Post(0, "M3", []byte("garbage"), nil)
	sink.OnIteration(IterationInfo{Iter: 0, Start: t0, Attempted: 3, Responded: 1})

	ds, err := sink.Dataset()
	if err == nil {
		t.Error("parse error not surfaced")
	}
	if sink.ParseErrors != 1 {
		t.Errorf("ParseErrors = %d", sink.ParseErrors)
	}
	if len(ds.Samples) != 1 || ds.Samples[0].Machine != "M1" {
		t.Errorf("samples = %+v", ds.Samples)
	}
	if len(ds.Iterations) != 1 || ds.Iterations[0].Responded != 1 {
		t.Errorf("iterations = %+v", ds.Iterations)
	}
}
