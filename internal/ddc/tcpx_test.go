package ddc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"winlab/internal/machine"
	"winlab/internal/probe"
)

// lockedSource guards a machine map for concurrent agent access.
type lockedSource struct {
	mu  sync.Mutex
	ms  map[string]*machine.Machine
	now time.Time
}

func (s *lockedSource) Snapshot(id string, _ time.Time) (machine.Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.ms[id]
	if !ok {
		return machine.Snapshot{}, false
	}
	return m.Snapshot(s.now)
}

func newTCPFixture(t *testing.T) (*lockedSource, *TCPExecutor, func()) {
	t.Helper()
	src := &lockedSource{ms: map[string]*machine.Machine{}, now: t0.Add(time.Hour)}
	for _, id := range []string{"M1", "M2"} {
		m := newMachine(id)
		m.PowerOn(t0)
		src.ms[id] = m
	}
	// M2 is powered off: unreachable.
	src.ms["M2"].PowerOff(t0.Add(30 * time.Minute))

	agent := &Agent{Source: src, Now: func() time.Time { return src.now }}
	addr, err := agent.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	exec := NewTCPExecutor()
	exec.Timeout = 2 * time.Second
	exec.Register("M1", addr)
	exec.Register("M2", addr)
	return src, exec, func() { _ = agent.Close() }
}

func TestTCPProbeSuccess(t *testing.T) {
	_, exec, cleanup := newTCPFixture(t)
	defer cleanup()
	out, err := exec.Exec(context.Background(), nil, "M1")
	if err != nil {
		t.Fatal(err)
	}
	sn, err := probe.NewParser().ParseBytes(out)
	if err != nil {
		t.Fatalf("unparseable report over TCP: %v", err)
	}
	if sn.ID != "M1" || sn.Uptime != time.Hour {
		t.Errorf("parsed %+v", sn)
	}
}

func TestTCPProbeUnreachableMachine(t *testing.T) {
	_, exec, cleanup := newTCPFixture(t)
	defer cleanup()
	_, err := exec.Exec(context.Background(), nil, "M2")
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestTCPProbeUnregistered(t *testing.T) {
	_, exec, cleanup := newTCPFixture(t)
	defer cleanup()
	if _, err := exec.Exec(context.Background(), nil, "M9"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v", err)
	}
}

func TestTCPProbeDeadAgent(t *testing.T) {
	exec := NewTCPExecutor()
	exec.Timeout = 500 * time.Millisecond
	// A listener we immediately close: connection refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	exec.Register("M1", addr)
	if _, err := exec.Exec(context.Background(), nil, "M1"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v", err)
	}
}

func TestAgentRejectsBadRequest(t *testing.T) {
	_, exec, cleanup := newTCPFixture(t)
	defer cleanup()
	// Reach into the registry for the address.
	exec.mu.RLock()
	addr := exec.addrs["M1"]
	exec.mu.RUnlock()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GIMME\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, _ := conn.Read(buf)
	if !strings.HasPrefix(string(buf[:n]), "ERR") {
		t.Errorf("agent reply to bad request: %q", buf[:n])
	}
}

func TestTCPConcurrentProbes(t *testing.T) {
	_, exec, cleanup := newTCPFixture(t)
	defer cleanup()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := exec.Exec(context.Background(), nil, "M1")
			if err != nil {
				errs <- err
				return
			}
			if _, err := probe.NewParser().ParseBytes(out); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestWallCollectorAgainstTCP(t *testing.T) {
	_, exec, cleanup := newTCPFixture(t)
	defer cleanup()
	sink := NewDatasetSink(t0, t0.AddDate(0, 0, 1), time.Millisecond, nil)
	coll := &WallCollector{
		Cfg:  Config{Machines: []string{"M1", "M2"}, Period: time.Millisecond},
		Exec: exec,
		Post: sink.Post,
	}
	coll.OnIteration = sink.OnIteration
	st, err := coll.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 3 || st.Attempts != 6 || st.Samples != 3 {
		t.Errorf("stats = %+v", st)
	}
	ds, err := sink.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Samples) != 3 || len(ds.Iterations) != 3 {
		t.Errorf("dataset: %d samples, %d iterations", len(ds.Samples), len(ds.Iterations))
	}
	if sink.ParseErrors != 0 {
		t.Errorf("parse errors = %d", sink.ParseErrors)
	}
}

// TestWallCollectorStop: cancelling Run's context stops a TCP run. A
// context cancelled up front still books the first iteration but
// samples nothing (TestRunContextCancelled covers an executor that
// ignores contexts). Cancelled while it sleeps out the period after its
// first sweep, the run returns at once.
func TestWallCollectorStop(t *testing.T) {
	_, tcp, cleanup := newTCPFixture(t)
	defer cleanup()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := (&WallCollector{
		Cfg:  Config{Machines: []string{"M1"}, Period: time.Hour},
		Exec: tcp,
	}).Run(cancelled, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 1 || st.Samples != 0 {
		t.Errorf("cancelled run booked %d iterations, %d samples; want 1, 0", st.Iterations, st.Samples)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	st, err = (&WallCollector{
		Cfg:         Config{Machines: []string{"M1"}, Period: time.Hour},
		Exec:        tcp,
		OnIteration: func(IterationInfo) { time.AfterFunc(20*time.Millisecond, cancel) },
	}).Run(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 1 || st.Samples != 1 {
		t.Errorf("run stopped after one sweep booked %d iterations, %d samples; want 1, 1", st.Iterations, st.Samples)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancel did not interrupt the sleep")
	}
}

func TestWallCollectorBadConfig(t *testing.T) {
	if _, err := (&WallCollector{Cfg: Config{}}).Run(context.Background(), 1); err == nil {
		t.Error("bad config accepted")
	}
}

func TestWallCollectorConcurrentWorkers(t *testing.T) {
	_, exec, cleanup := newTCPFixture(t)
	defer cleanup()
	sink := NewDatasetSink(t0, t0.AddDate(0, 0, 1), time.Millisecond, nil)
	coll := &WallCollector{
		Cfg:     Config{Machines: []string{"M1", "M2", "M1", "M2"}, Period: time.Millisecond},
		Exec:    exec,
		Post:    sink.Post,
		Workers: 4,
	}
	st, err := coll.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Attempts != 8 || st.Samples != 4 { // M1 up twice per iteration
		t.Errorf("stats = %+v", st)
	}
	ds, err := sink.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Samples) != 4 || sink.ParseErrors != 0 {
		t.Errorf("samples = %d, parse errors = %d", len(ds.Samples), sink.ParseErrors)
	}
}

// rawProbeServer runs a hand-rolled server that consumes the request line
// and answers with respond — for exercising the client against framed,
// unframed, and adversarial peers.
func rawProbeServer(t *testing.T, respond func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				_, _ = bufio.NewReader(c).ReadString('\n')
				respond(c)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestTCPAdversarialReportNotMisparsed is the regression test for the
// prefix-sniffing protocol bug: a healthy machine whose report body begins
// with "ERR " must be returned as data, not booked as unreachable.
func TestTCPAdversarialReportNotMisparsed(t *testing.T) {
	body := "ERR is a perfectly fine way to start a report\nline2\n"
	addr := rawProbeServer(t, func(c net.Conn) {
		_, _ = io.WriteString(c, "OK\n"+body)
	})
	exec := NewTCPExecutor()
	exec.Timeout = 2 * time.Second
	exec.Register("M1", addr)
	out, err := exec.Exec(context.Background(), nil, "M1")
	if err != nil {
		t.Fatalf("adversarial report misparsed as failure: %v", err)
	}
	if string(out) != body {
		t.Errorf("report body mangled: %q", out)
	}
}

// TestTCPUnframedReplyRejected: a peer that answers without a status
// line — no agent of this repo ever did — is a protocol error, booked as
// unreachable rather than parsed as a report.
func TestTCPUnframedReplyRejected(t *testing.T) {
	m := newMachine("M1")
	m.PowerOn(t0)
	sn, _ := m.Snapshot(t0.Add(time.Hour))
	report := probe.AppendRender(nil, sn)
	addr := rawProbeServer(t, func(c net.Conn) {
		_, _ = c.Write(report)
	})
	exec := NewTCPExecutor()
	exec.Timeout = 2 * time.Second
	exec.Register("M1", addr)
	out, err := exec.Exec(context.Background(), nil, "M1")
	if !errors.Is(err, ErrUnreachable) || out != nil {
		t.Fatalf("unframed report: out = %q, err = %v, want ErrUnreachable", out, err)
	}
	if !strings.Contains(err.Error(), "unframed") {
		t.Errorf("error does not name the protocol violation: %v", err)
	}

	// A bare ERR status line still surfaces as unreachable.
	addr2 := rawProbeServer(t, func(c net.Conn) {
		_, _ = io.WriteString(c, "ERR unreachable\n")
	})
	exec.Register("M2", addr2)
	if _, err := exec.Exec(context.Background(), nil, "M2"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("ERR line err = %v", err)
	}
}

func TestAgentTimeoutConfigurable(t *testing.T) {
	src := &lockedSource{ms: map[string]*machine.Machine{}, now: t0}
	agent := &Agent{Source: src, Timeout: 100 * time.Millisecond}
	addr, err := agent.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing: the agent must give up after its (configured, not the
	// default 10 s) deadline and close the connection.
	start := time.Now()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("agent answered an empty request")
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Errorf("agent held the idle connection for %v; Timeout not applied", el)
	}
}

// TestAgentCloseNotReportedAsServeError is the regression test for
// Listen's silently-discarded Serve error: the error path is now plumbed,
// and a clean Close must NOT be reported through it.
func TestAgentCloseNotReportedAsServeError(t *testing.T) {
	m := newMachine("M1")
	m.PowerOn(t0)
	src := &lockedSource{ms: map[string]*machine.Machine{"M1": m}, now: t0.Add(time.Hour)}

	var reported int32
	agent := &Agent{
		Source:       src,
		Now:          func() time.Time { return src.now },
		OnServeError: func(error) { atomic.AddInt32(&reported, 1) },
	}
	addr, err := agent.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	exec := NewTCPExecutor()
	exec.Timeout = 2 * time.Second
	exec.Register("M1", addr)
	if _, err := exec.Exec(context.Background(), nil, "M1"); err != nil {
		t.Fatalf("probe before close failed: %v", err)
	}
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	// Give the background Serve goroutine time to observe the close.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if _, err := net.Dial("tcp", addr); err != nil {
			break // listener is really gone
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if n := atomic.LoadInt32(&reported); n != 0 {
		t.Errorf("clean Close reported as Serve error %d times", n)
	}
}

// orderedSlowExec answers with per-machine delays so concurrent probes
// complete out of list order; it is safe for concurrent use.
type orderedSlowExec struct {
	delays map[string]time.Duration
	up     map[string]bool
}

func (s *orderedSlowExec) Exec(_ context.Context, dst []byte, id string) ([]byte, error) {
	time.Sleep(s.delays[id])
	if !s.up[id] {
		return nil, ErrUnreachable
	}
	return append(dst, "report:"+id...), nil
}

// TestWallCollectorWorkersAccounting pins the concurrent sweep's
// contract: per-iteration Attempts/Samples accounting is exact and the
// post-collect hook runs serially, in machine order, even though probe
// completions are deliberately inverted. Run under -race.
func TestWallCollectorWorkersAccounting(t *testing.T) {
	machines := []string{"M1", "M2", "M3", "M4"}
	exec := &orderedSlowExec{
		// M1 slowest, M4 fastest: completion order is the reverse of
		// machine order.
		delays: map[string]time.Duration{
			"M1": 40 * time.Millisecond, "M2": 25 * time.Millisecond,
			"M3": 10 * time.Millisecond, "M4": 0,
		},
		up: map[string]bool{"M1": true, "M2": true, "M4": true}, // M3 down
	}
	var inPost int32
	var order []string
	var iterInfos []IterationInfo
	coll := &WallCollector{
		Cfg:     Config{Machines: machines, Period: time.Millisecond},
		Exec:    exec,
		Workers: 4,
		Post: func(iter int, id string, out []byte, err error) {
			if atomic.AddInt32(&inPost, 1) != 1 {
				t.Error("Post ran concurrently")
			}
			defer atomic.AddInt32(&inPost, -1)
			order = append(order, fmt.Sprintf("%d/%s", iter, id))
		},
		OnIteration: func(info IterationInfo) { iterInfos = append(iterInfos, info) },
	}
	const iters = 3
	st, err := coll.Run(context.Background(), iters)
	if err != nil {
		t.Fatal(err)
	}
	if st.Attempts != iters*4 || st.Samples != iters*3 {
		t.Errorf("stats = %+v", st)
	}
	if len(iterInfos) != iters {
		t.Fatalf("OnIteration fired %d times", len(iterInfos))
	}
	for _, info := range iterInfos {
		if info.Attempted != 4 || info.Responded != 3 || info.Probes != 4 || info.Retries != 0 {
			t.Errorf("iteration %d info = %+v", info.Iter, info)
		}
	}
	if len(order) != iters*4 {
		t.Fatalf("Post fired %d times", len(order))
	}
	for i, got := range order {
		want := fmt.Sprintf("%d/%s", i/4, machines[i%4])
		if got != want {
			t.Fatalf("Post order[%d] = %s, want %s (full: %v)", i, got, want, order)
		}
	}
	if m3 := st.Machines["M3"]; m3.Failures != iters || m3.ConsecFails != iters {
		t.Errorf("M3 health = %+v", m3)
	}
}

func TestConcurrentMatchesSequential(t *testing.T) {
	_, exec, cleanup := newTCPFixture(t)
	defer cleanup()
	run := func(workers int) Stats {
		st, err := (&WallCollector{
			Cfg:     Config{Machines: []string{"M1", "M2"}, Period: time.Millisecond},
			Exec:    exec,
			Workers: workers,
		}).Run(context.Background(), 3)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	seq := run(1)
	par := run(8)
	if seq.Samples != par.Samples || seq.Attempts != par.Attempts {
		t.Errorf("sequential %+v != concurrent %+v", seq, par)
	}
}
