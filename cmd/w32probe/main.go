// Command w32probe is the standalone probe client: pointed at a probe
// agent (see cmd/ddcd and ddc.Agent), it requests one machine's report and
// prints it to stdout — exactly the stdout the paper's W32Probe produced
// under psexec.
//
// With -local it probes the machine it runs on through /proc (Linux),
// playing the role the win32 API played for the original probe. Without
// either flag it renders a demonstration snapshot of a freshly booted
// simulated machine, useful for eyeballing the report format.
//
// With -serve it stays resident as a probe agent for this host: a DDC
// coordinator (ddc.TCPExecutor / cmd/ddcd) can then collect it like any
// machine of the fleet.
//
// Usage:
//
//	w32probe [-addr host:port] [-machine ID] [-local] [-serve host:port]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"winlab/internal/ddc"
	"winlab/internal/hostprobe"
	"winlab/internal/lab"
	"winlab/internal/machine"
	"winlab/internal/probe"
)

// hostSource serves the local host's state regardless of the machine ID
// the coordinator asks for — one agent process per host, like psexec.
type hostSource struct{}

// Snapshot implements ddc.StateSource against the local host.
func (hostSource) Snapshot(id string, at time.Time) (machine.Snapshot, bool) {
	sn, err := hostprobe.Snapshot(at)
	if err != nil {
		return machine.Snapshot{}, false
	}
	if id != "" {
		sn.ID = id // report under the coordinator's name for the host
	}
	return sn, true
}

func main() {
	var (
		addr  = flag.String("addr", "", "probe agent address (empty: render a demo snapshot)")
		id    = flag.String("machine", "L01-M01", "machine ID to probe")
		local = flag.Bool("local", false, "probe this host via /proc (Linux)")
		serve = flag.String("serve", "", "serve this host as a probe agent on the given address")
	)
	flag.Parse()

	if *serve != "" {
		agent := &ddc.Agent{Source: hostSource{}}
		bound, err := agent.Listen(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "w32probe:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "w32probe: serving local-host probes on %s (any machine ID)\n", bound)
		select {} // serve until killed
	}

	if *local {
		sn, err := hostprobe.Snapshot(time.Now())
		if err != nil {
			fmt.Fprintln(os.Stderr, "w32probe:", err)
			os.Exit(1)
		}
		os.Stdout.Write(probe.AppendRender(nil, sn))
		return
	}

	if *addr != "" {
		exec := ddc.NewTCPExecutor()
		exec.Register(*id, *addr)
		out, err := exec.Exec(context.Background(), nil, *id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "w32probe:", err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
		return
	}

	// Demo mode: boot a machine, give it a user and some uptime, print the
	// report.
	fleet := lab.Build(lab.PaperCatalog(), 42, lab.DefaultDiskLife())
	m := fleet.Get(*id)
	if m == nil {
		fmt.Fprintf(os.Stderr, "w32probe: unknown machine %q\n", *id)
		os.Exit(1)
	}
	boot := time.Now().Add(-93 * time.Minute)
	m.PowerOn(boot)
	m.SetBaseline(212, 148, fleet.SpecOf(m).BaseImgGB)
	m.SetActivity(boot, machine.Activity{Name: machine.ActOSBackground, CPU: 0.003, SendBps: 210, RecvBps: 300})
	m.Login(boot.Add(7*time.Minute), "student042")
	m.SetActivity(boot.Add(7*time.Minute), machine.Activity{
		Name: machine.ActInteractive, CPU: 0.06, SendBps: 2400, RecvBps: 8100, MemMB: 92, SwapMB: 55,
	})
	sn, ok := m.Snapshot(time.Now())
	if !ok {
		fmt.Fprintln(os.Stderr, "w32probe: machine unreachable")
		os.Exit(1)
	}
	os.Stdout.Write(probe.AppendRender(nil, sn))
}
