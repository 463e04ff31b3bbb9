package ddc

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"winlab/internal/probe"
	"winlab/internal/rng"
	"winlab/internal/telemetry"
)

// This file implements a real network transport for the collector: probe
// agents that serve W32Probe reports over TCP, and a TCPExecutor that the
// coordinator uses in place of psexec. The protocol is a single-line
// request followed by a status line and the probe's stdout:
//
//	C: PROBE <machine-id>\n
//	S: OK\n
//	S: <probe report>            (then the server closes the connection)
//	S: ERR <message>\n           (on failure)
//
// The explicit OK status line exists because the original protocol had the
// client sniff the whole stream for an "ERR " prefix — which misclassified
// any healthy machine whose report happened to begin with those four bytes
// as unreachable. A reply whose first line is neither status is a
// protocol error, booked as unreachable like any other transport failure.
//
// The transport exists so the collector's code path — attempt, timeout,
// capture stdout, post-collect — is exercised over an actual network
// stack, not only in-process.

// Agent serves probe reports for the machines of a StateSource.
type Agent struct {
	Source StateSource
	Now    func() time.Time

	// Timeout bounds each connection's request/response exchange.
	// Defaults to 10 s.
	Timeout time.Duration

	// Telemetry, when set before Serve/Listen, counts connections,
	// request errors and bytes written (agent_* metrics). A nil registry
	// keeps the serving path uninstrumented.
	Telemetry *telemetry.Registry

	// OnServeError, when set, is called if the background Serve started
	// by Listen exits with an error. Errors caused by Close are not
	// reported.
	OnServeError func(error)

	ln     net.Listener
	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup

	telOnce sync.Once
	tel     agentTelemetry
}

// telemetryHandles resolves the agent's metric handles once.
func (a *Agent) telemetryHandles() *agentTelemetry {
	a.telOnce.Do(func() { a.tel = newAgentTelemetry(a.Telemetry) })
	return &a.tel
}

// Serve starts serving on ln. It returns when the listener is closed;
// closing via Close yields a nil error.
func (a *Agent) Serve(ln net.Listener) error {
	a.mu.Lock()
	a.ln = ln
	a.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			a.mu.Lock()
			closed := a.closed
			a.mu.Unlock()
			if closed {
				a.wg.Wait()
				return nil
			}
			return err
		}
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.handle(conn)
		}()
	}
}

// Listen starts the agent on addr (e.g. "127.0.0.1:0") and serves in a
// background goroutine. It returns the bound address. If the background
// Serve fails, the error is reported through OnServeError; a clean Close
// reports nothing.
func (a *Agent) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		err := a.Serve(ln)
		if err == nil {
			return
		}
		a.mu.Lock()
		cb := a.OnServeError
		a.mu.Unlock()
		if cb != nil {
			cb(err)
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops the agent.
func (a *Agent) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	if a.ln != nil {
		return a.ln.Close()
	}
	return nil
}

func (a *Agent) timeout() time.Duration {
	if a.Timeout > 0 {
		return a.Timeout
	}
	return 10 * time.Second
}

// Static response lines: the error paths write fixed bytes instead of
// formatting per connection.
var (
	respOK          = []byte("OK\n")
	respBadRequest  = []byte("ERR bad request\n")
	respUnreachable = []byte("ERR unreachable\n")
)

func (a *Agent) handle(conn net.Conn) {
	defer conn.Close()
	tel := a.telemetryHandles()
	tel.conns.Inc()
	tel.inflight.Add(1)
	defer tel.inflight.Add(-1)
	_ = conn.SetDeadline(time.Now().Add(a.timeout()))
	br := getConnReader(conn)
	line, err := br.ReadString('\n')
	putConnReader(br) // single-line request: nothing buffered matters after this
	if err != nil {
		tel.connErrors.Inc()
		return
	}
	id, ok := strings.CutPrefix(strings.TrimSpace(line), "PROBE ")
	if !ok {
		tel.connErrors.Inc()
		n, _ := conn.Write(respBadRequest)
		tel.bytesWritten.Add(int64(n))
		return
	}
	now := time.Now()
	if a.Now != nil {
		now = a.Now()
	}
	sn, up := a.Source.Snapshot(id, now)
	if !up {
		n, _ := conn.Write(respUnreachable)
		tel.bytesWritten.Add(int64(n))
		return
	}
	// Explicit status framing: the report body follows verbatim, whatever
	// bytes it starts with. The report renders into a pooled buffer — the
	// serving path allocates nothing per probe beyond the goroutine.
	n, err := conn.Write(respOK)
	tel.bytesWritten.Add(int64(n))
	if err != nil {
		tel.connErrors.Inc()
		return
	}
	rb := getReportBuf()
	rb.b = probe.AppendRender(rb.b[:0], sn)
	n, _ = conn.Write(rb.b)
	tel.bytesWritten.Add(int64(n))
	putReportBuf(rb)
}

// TCPExecutor probes agents over TCP. A machine with no registered address
// or whose agent reports unreachable yields ErrUnreachable, like a powered
// off host.
type TCPExecutor struct {
	mu      sync.RWMutex
	addrs   map[string]string
	Timeout time.Duration // per-probe dial+read deadline (default 5 s)

	tel transportTelemetry
}

// NewTCPExecutor creates an executor with an empty registry.
func NewTCPExecutor() *TCPExecutor {
	return &TCPExecutor{addrs: make(map[string]string)}
}

// SetTelemetry wires the executor to a metrics registry (tcp_* metrics:
// dial/read latency, bytes in/out, in-flight probes). Call before the
// collection starts; a nil registry switches instrumentation off.
func (t *TCPExecutor) SetTelemetry(reg *telemetry.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tel = newTransportTelemetry(reg)
}

// Register maps a machine ID to its agent's address.
func (t *TCPExecutor) Register(machineID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs[machineID] = addr
}

// Exec implements Executor: the probe is bounded by both the executor's
// Timeout and ctx's deadline/cancellation, whichever is tighter, and the
// report is appended to dst. All failures wrap ErrUnreachable, like a
// powered-off host.
func (t *TCPExecutor) Exec(ctx context.Context, dst []byte, machineID string) ([]byte, error) {
	t.mu.RLock()
	addr, ok := t.addrs[machineID]
	tel := t.tel
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s not registered", ErrUnreachable, machineID)
	}
	timeout := t.Timeout
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	dialCtx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	tel.inflight.Add(1)
	defer tel.inflight.Add(-1)
	var dialer net.Dialer
	dialStart := time.Now()
	conn, err := dialer.DialContext(dialCtx, "tcp", addr)
	tel.dials.Inc()
	tel.dialDuration.Observe(time.Since(dialStart))
	if err != nil {
		tel.dialErrors.Inc()
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, machineID, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(deadline)
	// Build the request line in a pooled buffer (fmt.Fprintf allocates).
	req := getReportBuf()
	req.b = append(append(append(req.b[:0], "PROBE "...), machineID...), '\n')
	n, err := conn.Write(req.b)
	putReportBuf(req)
	tel.bytesWritten.Add(int64(n))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, machineID, err)
	}
	readStart := time.Now()
	var out []byte
	if tel.bytesRead != nil {
		cr := &countingReader{r: conn}
		out, err = readFramedReport(dst, cr)
		tel.bytesRead.Add(cr.n)
	} else {
		out, err = readFramedReport(dst, conn)
	}
	tel.probeDuration.Observe(time.Since(readStart))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, machineID, err)
	}
	return out, nil
}

// countingReader counts the bytes pulled through an io.Reader.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// readFramedReport reads an agent response: an explicit status line ("OK"
// or "ERR <msg>"), then the report, which it appends to dst. Any other
// first line is an error. The bufio wrapper is pooled.
func readFramedReport(dst []byte, r io.Reader) ([]byte, error) {
	br := getConnReader(r)
	defer putConnReader(br)
	line, err := br.ReadString('\n')
	if err != nil && (err != io.EOF || line == "") {
		return nil, err
	}
	switch status := strings.TrimRight(line, "\r\n"); {
	case status == "OK":
		buf := bytes.NewBuffer(dst)
		if _, err := buf.ReadFrom(br); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	case strings.HasPrefix(status, "ERR "):
		return nil, fmt.Errorf("%s", strings.TrimPrefix(status, "ERR "))
	default:
		return nil, fmt.Errorf("unframed reply: status line %q is neither OK nor ERR", status)
	}
}

// WallCollector runs the collection loop in real time against any
// Executor — the deployment mode of DDC outside the simulation. By default
// it probes sequentially like the paper's coordinator; Workers > 1 probes
// concurrently, the ablation DESIGN.md §5 calls out (the paper accepted
// multi-minute sequential sweeps; concurrency shrinks the sweep at the
// cost of burstier network load).
//
// Unlike the paper's coordinator — which booked every probe timeout as a
// powered-off machine — the collector can retry transient failures
// (Retry) and stop hammering hard-down machines (Breaker); ProbeTimeout
// bounds each probe. Run blocks until the iterations complete or its
// context is cancelled.
type WallCollector struct {
	Cfg     Config
	Exec    Executor
	Post    PostCollect
	Workers int // concurrent probes per iteration; ≤1 means sequential

	// ProbeTimeout is the per-probe deadline, passed to the executor as
	// the attempt context's deadline. Zero means no collector-side
	// deadline (the executor's own timeout still applies).
	ProbeTimeout time.Duration

	// Retry bounds per-machine re-execution of failed probes within an
	// iteration; the zero value reproduces the paper's single-attempt
	// behaviour.
	Retry RetryPolicy

	// Breaker caps probing of persistently failing machines; the zero
	// value disables it.
	Breaker BreakerPolicy

	// OnIteration fires after every sweep; the info carries the
	// iteration's health counters.
	OnIteration IterationFunc

	// Telemetry, when set, streams the run's health into a metrics
	// registry (ddc_* counters/gauges/histograms) and records one span per
	// probe attempt and per breaker skip. Nil keeps the probe path
	// uninstrumented and allocation-free.
	Telemetry *telemetry.Registry

	jmu  sync.Mutex
	jsrc *rng.Source
}

// jitterSrc lazily builds the shared jitter stream.
func (w *WallCollector) jitterSrc() *rng.Source {
	w.jmu.Lock()
	defer w.jmu.Unlock()
	if w.jsrc == nil {
		w.jsrc = rng.Derive(w.Retry.Seed, "ddc-retry-jitter")
	}
	return w.jsrc
}

// jitteredBackoff draws one backoff delay; the mutex serialises draws
// under concurrent workers.
func (w *WallCollector) jitteredBackoff(retry int) time.Duration {
	if w.Retry.Jitter <= 0 {
		return w.Retry.backoff(retry, nil)
	}
	src := w.jitterSrc()
	w.jmu.Lock()
	defer w.jmu.Unlock()
	return w.Retry.backoff(retry, src)
}

// probeOutcome is the result of probing one machine for one iteration.
type probeOutcome struct {
	out      []byte
	err      error
	attempts int
	skipped  bool // breaker-open skip: no probe was executed
}

// probeWithRetry runs the per-probe attempt loop: deadline, bounded
// retries, exponential backoff with jitter. Every executed attempt is
// recorded as one telemetry span: ok, retry (a failure that will be
// re-attempted), timeout (final attempt killed by the collector's
// per-probe deadline) or error (final attempt failed otherwise).
func (w *WallCollector) probeWithRetry(ctx context.Context, iter int, id string, tel *collectorTelemetry) probeOutcome {
	maxAttempts := w.Retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	tel.probesInflight.Add(1)
	defer tel.probesInflight.Add(-1)
	var o probeOutcome
	for try := 0; try < maxAttempts; try++ {
		o.attempts++
		// The attempt's clock starts before its deadline is taken, so a
		// probe killed by the deadline reports at least ProbeTimeout.
		attemptStart := time.Now()
		pctx := ctx
		var cancel context.CancelFunc
		if w.ProbeTimeout > 0 {
			pctx, cancel = context.WithDeadline(ctx, attemptStart.Add(w.ProbeTimeout))
		}
		// An executor may ignore ctx (an in-process probe does), so a
		// context that is already done fails the attempt here.
		if err := pctx.Err(); err != nil {
			o.out, o.err = nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, id, err)
		} else {
			o.out, o.err = w.Exec.Exec(pctx, nil, id)
		}
		lat := time.Since(attemptStart)
		timedOut := o.err != nil && pctx.Err() == context.DeadlineExceeded && ctx.Err() == nil
		if cancel != nil {
			cancel()
		}
		tel.probeDuration.Observe(lat)
		if o.err == nil || try == maxAttempts-1 || ctx.Err() != nil {
			switch {
			case o.err == nil:
				tel.span(id, iter, o.attempts, lat, telemetry.OutcomeOK, nil)
			case timedOut:
				tel.span(id, iter, o.attempts, lat, telemetry.OutcomeTimeout, o.err)
			default:
				tel.span(id, iter, o.attempts, lat, telemetry.OutcomeError, o.err)
			}
			return o
		}
		tel.span(id, iter, o.attempts, lat, telemetry.OutcomeRetry, o.err)
		sleepCtx(ctx, w.jitteredBackoff(try))
		if ctx.Err() != nil {
			return o
		}
	}
	return o
}

// sweep probes every machine once and accumulates the iteration's health
// into st and states. The post-collect hook runs serially in machine
// order regardless of worker count (the paper's post-collecting code ran
// at the coordinator, single-threaded).
func (w *WallCollector) sweep(ctx context.Context, iter int, st *Stats, states map[string]*machineState, tel *collectorTelemetry) IterationInfo {
	n := len(w.Cfg.Machines)
	results := make([]probeOutcome, n)

	// Serial pre-pass: breaker admission control.
	probeIdx := make([]int, 0, n)
	for i, id := range w.Cfg.Machines {
		ms := states[id]
		if ms == nil {
			ms = &machineState{}
			states[id] = ms
		}
		if w.Breaker.enabled() && !ms.shouldProbe(iter, w.Breaker) {
			results[i] = probeOutcome{err: fmt.Errorf("%w: %s", ErrBreakerOpen, id), skipped: true}
			tel.span(id, iter, 0, 0, telemetry.OutcomeBreakerSkip, nil)
			continue
		}
		probeIdx = append(probeIdx, i)
	}

	// Dispatch the admitted probes, sequentially or across workers.
	probeOne := func(i int) {
		results[i] = w.probeWithRetry(ctx, iter, w.Cfg.Machines[i], tel)
	}
	if w.Workers <= 1 {
		for _, i := range probeIdx {
			probeOne(i)
		}
	} else {
		sem := make(chan struct{}, w.Workers)
		var wg sync.WaitGroup
		for _, i := range probeIdx {
			i := i
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				probeOne(i)
			}()
		}
		wg.Wait()
	}

	// Serial post-pass: accounting, breaker transitions, post-collect.
	// Telemetry counters are bumped here, next to the Stats fields they
	// mirror, so a /metrics scrape after the run matches Stats exactly.
	info := IterationInfo{Iter: iter, Attempted: n}
	for i, id := range w.Cfg.Machines {
		r := results[i]
		ms := states[id]
		if r.skipped {
			st.BreakerSkipped++
			info.BreakerSkipped++
			tel.breakerSkips.Inc()
		} else {
			st.Attempts += r.attempts
			st.Retries += r.attempts - 1
			info.Probes += r.attempts
			info.Retries += r.attempts - 1
			ms.attempts += r.attempts
			ms.retries += r.attempts - 1
			tel.probes.Add(int64(r.attempts))
			tel.retries.Add(int64(r.attempts - 1))
			if r.err == nil {
				st.Samples++
				info.Responded++
				tel.samples.Inc()
			} else {
				tel.failures.Inc()
			}
			if ms.record(iter, r.err != nil, w.Breaker) {
				st.BreakerOpens++
				tel.breakerOpens.Inc()
			}
		}
		if ms.open {
			info.BreakerOpen++
		}
		if w.Post != nil {
			w.Post(iter, id, r.out, r.err)
		}
	}
	tel.breakerOpenMachines.Set(int64(info.BreakerOpen))
	return info
}

// Run performs n iterations, sleeping the remainder of each period.
// Cancelling ctx stops the run (after the in-flight iteration's
// bookkeeping) and propagates into in-flight probes.
func (w *WallCollector) Run(ctx context.Context, n int) (st Stats, err error) {
	if err := w.Cfg.Validate(); err != nil {
		return Stats{}, err
	}
	states := make(map[string]*machineState, len(w.Cfg.Machines))
	tel := newCollectorTelemetry(w.Telemetry)
	defer func() {
		st.Machines = make(map[string]MachineHealth, len(states))
		for id, ms := range states {
			st.Machines[id] = ms.health()
		}
	}()
	for iter := 0; iter < n; iter++ {
		start := time.Now()
		if w.Cfg.inOutage(start) {
			st.Skipped++
			tel.iterationsSkipped.Inc()
		} else {
			st.Iterations++
			tel.iterations.Inc()
			info := w.sweep(ctx, iter, &st, states, &tel)
			info.Start = start
			info.End = time.Now()
			tel.iterationDuration.Observe(info.End.Sub(start))
			if w.OnIteration != nil {
				w.OnIteration(info)
			}
		}
		if iter == n-1 || ctx.Err() != nil {
			break
		}
		rest := w.Cfg.Period - time.Since(start)
		if rest <= 0 {
			continue
		}
		t := time.NewTimer(rest)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return st, nil
		}
	}
	return st, nil
}
