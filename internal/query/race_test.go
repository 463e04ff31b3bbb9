package query

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/ddc"
	"winlab/internal/machine"
	"winlab/internal/smart"
	"winlab/internal/trace"
)

// fleetSource serves snapshots for a set of simulated machines.
type fleetSource struct{ ms map[string]*machine.Machine }

func (s fleetSource) Snapshot(id string, at time.Time) (machine.Snapshot, bool) {
	m := s.ms[id]
	if m == nil {
		return machine.Snapshot{}, false
	}
	return m.Snapshot(at)
}

// TestConcurrentCommitVsReaderSnapshot is the snapshot-isolation race
// test (run it under -race): one writer goroutine drives a live
// collection — probing machines, committing samples into a DatasetSink,
// publishing a snapshot into the Store every k iterations — while
// reader goroutines hammer the HTTP handler. Afterwards every response
// any reader ever observed must equal the analysis of some committed
// prefix of the final trace: exactly e·k iterations for epoch e, the
// right sample count, the prefix's own index fingerprint, and the
// prefix's analysis output. A torn read — a clone taken mid-iteration,
// shared slice storage, a stale aggregate — fails the fingerprint or
// value comparison.
func TestConcurrentCommitVsReaderSnapshot(t *testing.T) {
	const (
		nMachines = 8
		nIters    = 40
		every     = 4
	)
	period := 15 * time.Minute

	src := fleetSource{ms: map[string]*machine.Machine{}}
	var infos []trace.MachineInfo
	ids := make([]string, nMachines)
	for k := 0; k < nMachines; k++ {
		id := string(rune('A' + k))
		ids[k] = id
		hw := machine.Hardware{CPUModel: "P4", CPUGHz: 2.4, RAMMB: 256, DiskGB: 40}
		m := machine.New(id, "L01", hw, smart.NewDisk("D-"+id, 40))
		m.PowerOn(t0.Add(-time.Hour))
		src.ms[id] = m
		infos = append(infos, trace.MachineInfo{ID: id, Lab: "L01", RAMMB: 256, DiskGB: 40, IntIndex: 1, FPIndex: 1})
	}

	end := t0.Add(nIters * period)
	sink := ddc.NewDatasetSink(t0, end, period, infos)
	st := NewStore(analysis.Options{})
	detach := sink.SnapshotEvery(every, func(ds *trace.Dataset) { st.Publish(ds) })
	defer detach()
	h := NewHandler(Config{Store: st})

	// Readers: record every (epoch → meta, summary stat) pair observed.
	type obs struct {
		fingerprint  string
		iterations   float64
		samples      float64
		avgPoweredOn float64
	}
	var obsMu sync.Mutex
	seen := map[uint64][]obs{}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/summary", nil))
				if rec.Code != 200 {
					continue // nothing published yet
				}
				var doc struct {
					Meta struct {
						Epoch       uint64  `json:"epoch"`
						Fingerprint string  `json:"fingerprint"`
						Iterations  float64 `json:"iterations"`
						Samples     float64 `json:"samples"`
					} `json:"meta"`
					AvgPoweredOn float64 `json:"avg_powered_on"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
					t.Errorf("reader: bad JSON: %v", err)
					return
				}
				obsMu.Lock()
				seen[doc.Meta.Epoch] = append(seen[doc.Meta.Epoch], obs{
					fingerprint:  doc.Meta.Fingerprint,
					iterations:   doc.Meta.Iterations,
					samples:      doc.Meta.Samples,
					avgPoweredOn: doc.AvgPoweredOn,
				})
				obsMu.Unlock()
			}
		}()
	}

	// Writer: the live collection. Machines power-cycle mid-run so the
	// committed data actually varies between epochs.
	now := t0
	exec := &ddc.Direct{Source: src, Now: func() time.Time { return now }}
	for i := 0; i < nIters; i++ {
		now = t0.Add(time.Duration(i) * period)
		if i == 10 {
			src.ms[ids[0]].PowerOff(now)
		}
		if i == 20 {
			src.ms[ids[0]].PowerOn(now)
			src.ms[ids[1]].Login(now, "student")
		}
		responded := 0
		for _, id := range ids {
			if !src.ms[id].Powered() {
				continue
			}
			out, err := exec.Exec(id)
			sink.Post(i, id, out, err)
			if err == nil {
				responded++
			}
		}
		sink.OnIteration(ddc.IterationInfo{
			Iter: i, Start: now, End: now.Add(time.Minute),
			Attempted: nMachines, Responded: responded,
		})
		if (i+1)%every == 0 {
			// Give the readers a scheduling window per published epoch so
			// the test actually interleaves commits with reads.
			time.Sleep(2 * time.Millisecond)
		}
	}
	close(done)
	readers.Wait()

	final, err := sink.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("readers observed no epochs")
	}

	// Every observation must match the committed prefix its epoch names.
	for epoch, os := range seen {
		k := int(epoch) * every
		if k > len(final.Iterations) {
			t.Fatalf("epoch %d implies %d iterations, trace has %d", epoch, k, len(final.Iterations))
		}
		prefix := &trace.Dataset{
			Start: final.Start, End: final.End, Period: final.Period,
			Machines:   final.Machines,
			Iterations: final.Iterations[:k],
		}
		boundary := prefix.Iterations[k-1].Iter
		for i := range final.Samples {
			if final.Samples[i].Iter <= boundary {
				prefix.Samples = append(prefix.Samples, final.Samples[i])
			}
		}
		wantFP := fingerprintHex(prefix.Index().Fingerprint())
		wantAvg := analysis.All(prefix, analysis.Options{}).Availability.AvgPoweredOn
		for _, o := range os {
			if o.fingerprint != wantFP {
				t.Fatalf("epoch %d: observed fingerprint %s, prefix has %s (torn snapshot)", epoch, o.fingerprint, wantFP)
			}
			if int(o.iterations) != k {
				t.Fatalf("epoch %d: observed %v iterations, want %d", epoch, o.iterations, k)
			}
			if int(o.samples) != len(prefix.Samples) {
				t.Fatalf("epoch %d: observed %v samples, want %d", epoch, o.samples, len(prefix.Samples))
			}
			if o.avgPoweredOn != wantAvg {
				t.Fatalf("epoch %d: observed avg_powered_on %v, prefix analysis says %v", epoch, o.avgPoweredOn, wantAvg)
			}
		}
	}
}
