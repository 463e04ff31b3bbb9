package ddc

import (
	"time"

	"winlab/internal/telemetry"
)

// This file wires the collector to the telemetry layer. All
// instrumentation goes through pre-resolved handle structs so the probe
// hot path performs no map lookups, and every handle is nil when
// telemetry is off — the nil-safe no-op methods keep the uninstrumented
// path allocation-free (guarded by TestNilTelemetryAllocFree).

// Collector metric names. These are the stable scrape surface BENCH_*
// runs and dashboards key on; renaming one is a breaking change.
const (
	// Counters mirroring Stats exactly (asserted end-to-end in tests).
	MetricIterations        = "ddc_iterations_total"
	MetricIterationsSkipped = "ddc_iterations_skipped_total"
	MetricProbes            = "ddc_probes_total"        // == Stats.Attempts
	MetricRetries           = "ddc_probe_retries_total" // == Stats.Retries
	MetricSamples           = "ddc_samples_total"       // == Stats.Samples
	MetricBreakerSkips      = "ddc_breaker_skips_total" // == Stats.BreakerSkipped
	MetricBreakerOpens      = "ddc_breaker_opens_total" // == Stats.BreakerOpens
	MetricProbeFailures     = "ddc_probe_failures_total"

	// Gauges.
	MetricBreakerOpenMachines = "ddc_breaker_open_machines"
	MetricProbesInflight      = "ddc_probes_inflight"

	// Histograms.
	MetricProbeDuration     = "ddc_probe_duration_seconds"
	MetricIterationDuration = "ddc_iteration_duration_seconds"

	// TCP transport (TCPExecutor).
	MetricTCPDials         = "tcp_dials_total"
	MetricTCPDialErrors    = "tcp_dial_errors_total"
	MetricTCPBytesRead     = "tcp_probe_bytes_read_total"
	MetricTCPBytesWritten  = "tcp_probe_bytes_written_total"
	MetricTCPInflight      = "tcp_probes_inflight"
	MetricTCPDialDuration  = "tcp_dial_duration_seconds"
	MetricTCPProbeDuration = "tcp_probe_duration_seconds"

	// Probe agent (Agent).
	MetricAgentConns        = "agent_conns_total"
	MetricAgentConnErrors   = "agent_conn_errors_total"
	MetricAgentBytesWritten = "agent_bytes_written_total"
	MetricAgentInflight     = "agent_conns_inflight"

	// Dataset sink (DatasetSink).
	MetricSinkSamples     = "sink_samples_total"
	MetricSinkParseErrors = "sink_parse_errors_total"
	MetricSinkIterations  = "sink_iterations_total"
)

// collectorTelemetry holds the collector's resolved metric handles. The
// zero value (all-nil handles) is the telemetry-off state: every method
// call no-ops without a branch at the call site.
type collectorTelemetry struct {
	iterations, iterationsSkipped        *telemetry.Counter
	probes, retries, samples             *telemetry.Counter
	breakerSkips, breakerOpens, failures *telemetry.Counter
	breakerOpenMachines, probesInflight  *telemetry.Gauge
	probeDuration, iterationDuration     *telemetry.Histogram
	spans                                *telemetry.SpanRecorder
}

// newCollectorTelemetry resolves the collector's handles once per run. A
// nil registry yields the zero (no-op) struct.
func newCollectorTelemetry(reg *telemetry.Registry) collectorTelemetry {
	if reg == nil {
		return collectorTelemetry{}
	}
	return collectorTelemetry{
		iterations:          reg.Counter(MetricIterations),
		iterationsSkipped:   reg.Counter(MetricIterationsSkipped),
		probes:              reg.Counter(MetricProbes),
		retries:             reg.Counter(MetricRetries),
		samples:             reg.Counter(MetricSamples),
		breakerSkips:        reg.Counter(MetricBreakerSkips),
		breakerOpens:        reg.Counter(MetricBreakerOpens),
		failures:            reg.Counter(MetricProbeFailures),
		breakerOpenMachines: reg.Gauge(MetricBreakerOpenMachines),
		probesInflight:      reg.Gauge(MetricProbesInflight),
		probeDuration:       reg.Histogram(MetricProbeDuration, nil),
		iterationDuration:   reg.Histogram(MetricIterationDuration, nil),
		spans:               reg.Spans(),
	}
}

// span records one probe-level span. The early nil check matters: when
// telemetry is off we must not even build the span (err.Error() and the
// Span literal's string headers would be the only allocations on the
// probe path).
func (t *collectorTelemetry) span(machine string, iter, attempt int, lat time.Duration, outcome telemetry.Outcome, err error) {
	if t.spans == nil {
		return
	}
	sp := telemetry.Span{
		Machine: machine,
		Iter:    iter,
		Attempt: attempt,
		Latency: lat,
		Outcome: outcome,
	}
	if err != nil {
		sp.Err = err.Error()
	}
	t.spans.Record(sp)
}

// transportTelemetry holds the TCP transport's resolved handles; the zero
// value is telemetry-off.
type transportTelemetry struct {
	dials, dialErrors           *telemetry.Counter
	bytesRead, bytesWritten     *telemetry.Counter
	inflight                    *telemetry.Gauge
	dialDuration, probeDuration *telemetry.Histogram
}

func newTransportTelemetry(reg *telemetry.Registry) transportTelemetry {
	if reg == nil {
		return transportTelemetry{}
	}
	return transportTelemetry{
		dials:         reg.Counter(MetricTCPDials),
		dialErrors:    reg.Counter(MetricTCPDialErrors),
		bytesRead:     reg.Counter(MetricTCPBytesRead),
		bytesWritten:  reg.Counter(MetricTCPBytesWritten),
		inflight:      reg.Gauge(MetricTCPInflight),
		dialDuration:  reg.Histogram(MetricTCPDialDuration, nil),
		probeDuration: reg.Histogram(MetricTCPProbeDuration, nil),
	}
}

// agentTelemetry holds the probe agent's resolved handles; the zero value
// is telemetry-off.
type agentTelemetry struct {
	conns, connErrors, bytesWritten *telemetry.Counter
	inflight                        *telemetry.Gauge
}

func newAgentTelemetry(reg *telemetry.Registry) agentTelemetry {
	if reg == nil {
		return agentTelemetry{}
	}
	return agentTelemetry{
		conns:        reg.Counter(MetricAgentConns),
		connErrors:   reg.Counter(MetricAgentConnErrors),
		bytesWritten: reg.Counter(MetricAgentBytesWritten),
		inflight:     reg.Gauge(MetricAgentInflight),
	}
}

// sinkTelemetry holds the dataset sink's resolved handles; the zero value
// is telemetry-off.
type sinkTelemetry struct {
	samples, parseErrors, iterations *telemetry.Counter
	spans                            *telemetry.SpanRecorder
}

func newSinkTelemetry(reg *telemetry.Registry) sinkTelemetry {
	if reg == nil {
		return sinkTelemetry{}
	}
	return sinkTelemetry{
		samples:     reg.Counter(MetricSinkSamples),
		parseErrors: reg.Counter(MetricSinkParseErrors),
		iterations:  reg.Counter(MetricSinkIterations),
		spans:       reg.Spans(),
	}
}
