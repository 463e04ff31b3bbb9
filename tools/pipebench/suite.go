package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// resultSchema names the ledger schema: every later PR appends result
// sets in it under ledger/.
const resultSchema = "pipebench/1"

// Series is one end-to-end metric over the runs of a result set.
type Series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"` // one per run, in seed order
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 − q1) ÷ median
}

func newSeries(unit string, values []float64) *Series {
	q1, q3 := quartiles(values)
	return &Series{Unit: unit, Values: values, Median: median(values), Q1: q1, Q3: q3, Spread: spread(values)}
}

// WorkloadSet is every run of one workload in a result set.
type WorkloadSet struct {
	Workload  string                 `json:"workload"`
	Seeds     []int64                `json:"seeds"`
	Rounds    []int                  `json:"rounds"` // timed rounds behind each run's round_s
	EndToEnd  map[string]*Series     `json:"end_to_end"`
	User      map[string]*Series     `json:"user"` // userDefs of every run; no bounds
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Checks    []Checks               `json:"checks"` // one per run
	PerLayer  map[string]driverValue `json:"per_layer,omitempty"`
	Stages    []*StageRow            `json:"stages,omitempty"`
}

// ResultSet is the document the suite writes and -compare reads.
type ResultSet struct {
	Schema    string         `json:"schema"`
	Label     string         `json:"label"`
	Env       Env            `json:"env"`
	Seed      int64          `json:"seed"`
	Runs      int            `json:"runs"`
	Seconds   float64        `json:"seconds"`
	Workloads []*WorkloadSet `json:"workloads"`
}

func (rs *ResultSet) workload(name string) *WorkloadSet {
	for _, w := range rs.Workloads {
		if w.Workload == name {
			return w
		}
	}
	return nil
}

// suiteMain measures every workload runs times, interleaving workloads so
// that slow drift of the machine spreads over all of them, then once
// traced when asked.
func suiteMain(r *runner, seed int64, seconds float64, runs int, traced bool, label, out string) error {
	rs := &ResultSet{Schema: resultSchema, Label: label, Env: readEnv(), Seed: seed, Runs: runs, Seconds: seconds}
	values := map[string]map[string][]float64{}
	for _, name := range workloadNames {
		rs.Workloads = append(rs.Workloads, &WorkloadSet{Workload: name, EndToEnd: map[string]*Series{}, User: map[string]*Series{}})
		values[name] = map[string][]float64{}
	}
	for i := 0; i < runs; i++ {
		for _, ws := range rs.Workloads {
			run, err := r.runWorkload(ws.Workload, seed+int64(i), seconds, false)
			if err != nil {
				return err
			}
			printRun(os.Stderr, run) // progress; the set is printed at the end
			ws.Seeds = append(ws.Seeds, run.Seed)
			ws.Rounds = append(ws.Rounds, run.Rounds)
			ws.Attempted += run.Attempted
			ws.Failed += run.Failed
			ws.Checks = append(ws.Checks, run.Checks)
			for _, m := range []map[string]float64{run.EndToEnd, run.User} {
				for k, v := range m {
					values[ws.Workload][k] = append(values[ws.Workload][k], v)
				}
			}
		}
	}
	for _, ws := range rs.Workloads {
		for _, d := range endToEndDefs {
			ws.EndToEnd[d.Name] = newSeries(d.Unit, values[ws.Workload][d.Name])
		}
		for _, d := range userDefs {
			if s := newSeries(d.Unit, values[ws.Workload][d.Name]); s.Median != 0 {
				ws.User[d.Name] = s // a workload has only its own
			}
		}
	}
	if traced {
		for _, ws := range rs.Workloads {
			run, err := r.runWorkload(ws.Workload, seed, seconds, true)
			if err != nil {
				return err
			}
			ws.PerLayer = map[string]driverValue{}
			for _, d := range perLayerDefs {
				ws.PerLayer[d.Name] = driverValue{Value: run.PerLayer[d.Name], Unit: d.Unit}
			}
			ws.Stages = run.Stages
			ws.Failed += run.Failed
			ws.Attempted += run.Attempted
			path := filepath.Join(r.scratch, "spans-"+ws.Workload+".jsonl")
			if err := writeSpansJSONL(path, run.spans); err != nil {
				return err
			}
		}
	}
	printSet(rs)
	if out == "" {
		return nil
	}
	js, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(js, '\n'), 0o644)
}

// printSet prints every metric of the result set by name with its unit.
func printSet(rs *ResultSet) {
	w := os.Stdout
	fmt.Fprintf(w, "pipebench %s: %d runs × %.0f s, seeds %d.., %s, %d cores (GOMAXPROCS %d), load %.2f\n",
		rs.Label, rs.Runs, rs.Seconds, rs.Seed, rs.Env.GoVersion, rs.Env.NProc, rs.Env.GoMaxProcs, rs.Env.LoadAvg1)
	for _, ws := range rs.Workloads {
		share := 0.0
		if ws.Attempted > 0 {
			share = float64(ws.Failed) / float64(ws.Attempted)
		}
		fmt.Fprintf(w, "%s: rounds per run %v, failed_share %g (%d of %d)\n", ws.Workload, ws.Rounds, share, ws.Failed, ws.Attempted)
		for _, d := range endToEndDefs {
			s := ws.EndToEnd[d.Name]
			fmt.Fprintf(w, "  %-28s %14.6g %-5s median of %d runs, spread %.2f%%\n", d.Name, s.Median, d.Unit, len(s.Values), 100*s.Spread)
		}
		for _, d := range userDefs {
			if s := ws.User[d.Name]; s != nil {
				fmt.Fprintf(w, "  %-28s %14.6g %-5s median of %d runs, spread %.2f%% (no bound)\n", d.Name, s.Median, d.Unit, len(s.Values), 100*s.Spread)
			}
		}
		if ws.PerLayer == nil {
			continue
		}
		for _, d := range perLayerDefs {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, ws.PerLayer[d.Name].Value, d.Unit)
		}
		printStageTable(w, ws.Workload, ws.Stages)
	}
}
