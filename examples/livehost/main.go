// Livehost: the whole collection pipeline against the real machine this
// example runs on (Linux). The local host is exposed through a probe agent
// (exactly what `w32probe -serve` does), a DDC coordinator collects a few
// fast iterations over TCP, and the analysis computes CPU idleness from
// the host's genuine /proc counters — the paper's methodology, minus the
// classroom.
//
//	go run ./examples/livehost
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/ddc"
	"winlab/internal/hostprobe"
	"winlab/internal/machine"
	"winlab/internal/report"
	"winlab/internal/trace"
)

// hostSource serves the local host regardless of the requested ID.
type hostSource struct{}

// Snapshot implements ddc.StateSource against this machine.
func (hostSource) Snapshot(id string, at time.Time) (machine.Snapshot, bool) {
	sn, err := hostprobe.Snapshot(at)
	if err != nil {
		return machine.Snapshot{}, false
	}
	sn.ID = id
	return sn, true
}

func main() {
	if runtime.GOOS != "linux" {
		fmt.Println("livehost needs Linux (/proc); try the simulated examples instead")
		return
	}
	const (
		iters  = 6
		period = 2 * time.Second
	)
	agent := &ddc.Agent{Source: hostSource{}}
	addr, err := agent.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer agent.Close()

	exec := ddc.NewTCPExecutor()
	exec.Register("this-host", addr)

	start := time.Now()
	sink := ddc.NewDatasetSink(start, start.Add(iters*period), period, []trace.MachineInfo{
		{ID: "this-host", Lab: "local", IntIndex: 1, FPIndex: 1},
	})
	coll := &ddc.WallCollector{
		Cfg:  ddc.Config{Machines: []string{"this-host"}, Period: period},
		Exec: exec,
		Post: sink.Post,
	}
	coll.OnIteration = sink.OnIteration

	fmt.Fprintf(os.Stderr, "collecting %d samples of this host, %s apart...\n", iters, period)
	if _, err := coll.Run(context.Background(), iters); err != nil {
		log.Fatal(err)
	}
	ds, err := sink.Dataset()
	if err != nil {
		log.Fatal(err)
	}

	t := &report.Table{
		Title:   "Local host samples (real /proc counters)",
		Headers: []string{"Time", "Uptime", "CPU idle cum.", "RAM %", "Free disk GB"},
	}
	for i := range ds.Samples {
		s := &ds.Samples[i]
		t.AddRow(s.Time.Format("15:04:05"),
			s.Uptime.Round(time.Second).String(),
			s.CPUIdle.Round(time.Second).String(),
			fmt.Sprintf("%d", s.MemLoadPct),
			fmt.Sprintf("%.1f", s.FreeDiskGB))
	}
	t.Render(os.Stdout)

	// Between-sample CPU idleness, the paper's §4.2 computation, over real
	// counters.
	fmt.Println()
	for i := 1; i < len(ds.Samples); i++ {
		iv := trace.Interval{A: &ds.Samples[i-1], B: &ds.Samples[i]}
		if !trace.SameBoot(iv.A, iv.B) || iv.Duration() > 2*period {
			continue // rebooted or missed a probe: no valid interval
		}
		fmt.Printf("interval %s → %s: CPU idleness %.1f%%\n",
			iv.A.Time.Format("15:04:05"), iv.B.Time.Format("15:04:05"), iv.CPUIdlePct())
	}
	t2 := analysis.MainResults(ds, analysis.DefaultForgottenThreshold)
	fmt.Printf("\nmean CPU idleness of this host right now: %.1f%% (the paper's fleet: 97.9%%)\n",
		t2.Both.CPUIdlePct)
}
