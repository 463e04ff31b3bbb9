// Tcpcollect: the collection pipeline over a real network. Machines of a
// simulated lab are exposed through TCP probe agents on localhost; the DDC
// coordinator probes them with the same executor interface the in-process
// collector uses, parses the W32Probe reports at the coordinator side and
// prints what it learned.
//
// The hardened-collector knobs are demonstrable from the command line:
// -failp injects seeded transient probe failures between the coordinator
// and the TCP transport, and -retries gives the collector a retry budget
// to absorb them. Compare:
//
//	go run ./examples/tcpcollect -failp 0.2            # paper-style: losses
//	go run ./examples/tcpcollect -failp 0.2 -retries 2 # hardened: recovered
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"winlab/internal/behavior"
	"winlab/internal/ddc"
	"winlab/internal/experiment"
	"winlab/internal/lab"
	"winlab/internal/machine"
	"winlab/internal/probe"
	"winlab/internal/sim"
)

// acceleratedFleet advances a simulated fleet in warped wall time.
type acceleratedFleet struct {
	mu    sync.Mutex
	eng   *sim.Engine
	fleet *lab.Fleet
	base  time.Time
	start time.Time
	accel float64
}

// Snapshot implements ddc.StateSource at the current warped instant.
func (a *acceleratedFleet) Snapshot(id string, _ time.Time) (machine.Snapshot, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	at := a.start.Add(time.Duration(float64(time.Since(a.base)) * a.accel))
	a.eng.RunUntil(at)
	m := a.fleet.Get(id)
	if m == nil {
		return machine.Snapshot{}, false
	}
	return m.Snapshot(at)
}

func main() {
	var (
		failp   = flag.Float64("failp", 0, "injected transient probe-failure probability")
		retries = flag.Int("retries", 0, "extra probe attempts per machine per round")
		seed    = flag.Int64("seed", 5, "seed (fleet and fault injection)")
	)
	flag.Parse()

	const accel = 6000 // one wall second = 100 simulated minutes

	specs := lab.PaperCatalog()[:2] // two labs, 32 machines
	fleet := lab.Build(specs, *seed, lab.DefaultDiskLife())
	start := experiment.Default(*seed).Start.Add(9 * time.Hour) // Monday 09:00
	eng := sim.New(start)
	behavior.NewModel(behavior.DefaultConfig(*seed), fleet).Install(eng, start, start.AddDate(0, 0, 30))

	af := &acceleratedFleet{eng: eng, fleet: fleet, base: time.Now(), start: start, accel: accel}

	// One agent serving all machines (agents multiplex fine; cmd/ddcd shows
	// the one-agent-per-machine layout instead).
	agent := &ddc.Agent{Source: af}
	addr, err := agent.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer agent.Close()

	tcp := ddc.NewTCPExecutor()
	var ids []string
	for _, m := range fleet.Machines {
		tcp.Register(m.ID, addr)
		ids = append(ids, m.ID)
	}

	// Optionally wrap the transport in deterministic fault injection, the
	// same wrapper the retry-policy tests use.
	var exec ddc.Executor = tcp
	var faults *ddc.FaultExecutor
	if *failp > 0 {
		faults = &ddc.FaultExecutor{Inner: tcp, TransientFailP: *failp, Seed: *seed}
		exec = faults
	}

	// Probe every machine three times, 150 ms (= 15 simulated minutes)
	// apart, through the hardened collector loop, and report what came
	// back round by round.
	coll := &ddc.WallCollector{
		Cfg:   ddc.Config{Machines: ids, Period: 150 * time.Millisecond},
		Exec:  exec,
		Retry: ddc.RetryPolicy{MaxAttempts: 1 + *retries, BaseBackoff: 5 * time.Millisecond, Jitter: 0.5, Seed: *seed},
	}
	withUser := 0
	parser := probe.NewParser()
	coll.Post = func(iter int, id string, out []byte, err error) {
		if err != nil {
			return
		}
		sn, perr := parser.ParseTarget(id, out)
		if perr != nil {
			log.Fatalf("bad report from %s: %v", id, perr)
		}
		if sn.HasSession() {
			withUser++
		}
	}
	coll.OnIteration = func(info ddc.IterationInfo) {
		fmt.Printf("round %d: %2d up (%2d with user), %2d unreachable, %d probes (%d retries)\n",
			info.Iter+1, info.Responded, withUser, info.Attempted-info.Responded,
			info.Probes, info.Retries)
		withUser = 0
	}
	st, err := coll.Run(context.Background(), 3)
	if err != nil {
		log.Fatal(err)
	}
	if faults != nil {
		fs := faults.Stats()
		fmt.Printf("\nfault injection: %d transient failures over %d probe attempts; "+
			"collector recovered %d via retries\n", fs.Transients, fs.Calls, st.Retries)
	}
	fmt.Println("\nthe same Executor interface drives ddc.WallCollector and ddc.ShardedCollector;")
	fmt.Println("see cmd/ddcd for the full coordinator loop over TCP.")
}
