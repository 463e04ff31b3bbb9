# Tier-1 verification and developer shortcuts.

GO ?= go

.PHONY: build test verify bench profile profile-grid ledger fuzz telemetry-demo doctor stream-smoke anomaly gridscale serve-smoke scenarios scenario-longhaul

# Benchmark knobs: BENCHTIME=1x bounds CI cost (each benchmark runs once);
# drop it locally for steadier numbers. The JSON summary (env block plus
# name → ns/op, B/op, allocs/op) lands in $(BENCHJSON) for before/after
# comparisons; set PR to the pull request being measured. Distinct from
# BENCH_PR9.json, the queryload macro curve.
BENCHTIME ?= 1x
PR ?= 22
BENCHJSON ?= BENCH_PR$(PR)_micro.json

# Fuzz smoke budget per target; raise locally for deeper runs.
FUZZTIME ?= 10s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the tier-1 gate: vet plus the full suite under the race
# detector (the collector's engine → shard hand-off and the concurrent
# WallCollector paths are exercised by it). tools/pipebench is its own
# module — root ./... cannot see it — and it compiles against the
# ddc/experiment API, so it is vetted and tested here too.
verify:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) vet -C tools/pipebench ./...
	$(GO) test -C tools/pipebench ./...

bench:
	$(GO) test -bench . -benchmem -count 1 -benchtime $(BENCHTIME) -timeout 30m \
	    | $(GO) run ./tools/benchjson -o $(BENCHJSON)

# profile answers "where does the paper's run go?": the 77-day, seed-1
# experiment.Run once under the CPU profiler, then the cumulative top of
# the profile. One simulated day (BenchmarkSimulation) hides whatever
# grows with the trace — at 77 days the old machine-major sort was 27 %
# of the run and on nobody's list. Binary and profile land in
# $(PROFILEDIR), which .gitignore covers.
PROFILEDIR ?= .bench_build/profile

profile:
	@mkdir -p $(PROFILEDIR)
	$(GO) test -c -o $(PROFILEDIR)/winlab.test .
	$(PROFILEDIR)/winlab.test -test.run '^$$' -test.bench '^BenchmarkSimulationPaperScale$$' \
	    -test.benchtime 1x -test.benchmem -test.cpu 2 -test.cpuprofile $(PROFILEDIR)/cpu.prof
	$(GO) tool pprof -top -cum -nodecount 40 $(PROFILEDIR)/winlab.test $(PROFILEDIR)/cpu.prof

# profile-grid is profile for grid_shards' trace stages: the six-segment
# merge at the benchmark's 100k-machine shape under the CPU and
# allocation profilers. The benchmark collects its own segments first,
# so both reports are focused on the stage's entry point; for the other
# two stages set GRIDBENCH=BenchmarkGridCursor GRIDFOCUS=NextRun, or
# GRIDBENCH=BenchmarkGridSegmentWrite GRIDFOCUS=BenchmarkGridSegmentWrite.
# Start the next PR on this path from its output, not from a guess.
GRIDBENCH ?= BenchmarkGridMerge
GRIDFOCUS ?= MergeSegments

profile-grid:
	@mkdir -p $(PROFILEDIR)
	$(GO) test -c -o $(PROFILEDIR)/winlab.test .
	GRIDSCALE_MACHINES=$(GRIDSCALE_MACHINES) $(PROFILEDIR)/winlab.test -test.run '^$$' -test.bench '^$(GRIDBENCH)$$' \
	    -test.benchtime 3x -test.benchmem -test.cpu 2 \
	    -test.cpuprofile $(PROFILEDIR)/grid-cpu.prof -test.memprofile $(PROFILEDIR)/grid-mem.prof -test.memprofilerate 4096
	$(GO) tool pprof -top -cum -nodecount 40 -focus '$(GRIDFOCUS)' $(PROFILEDIR)/winlab.test $(PROFILEDIR)/grid-cpu.prof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 15 -focus '$(GRIDFOCUS)' $(PROFILEDIR)/winlab.test $(PROFILEDIR)/grid-mem.prof

# ledger writes this PR's pipebench result set (schema pipebench/1, three
# runs per workload plus a traced one, ≈10 minutes) where a PR may commit
# it: tools/pipebench/ledger is inside the benchmark's protected path,
# bench/ledger is not. Compare two sets with
#   bash tools/pipebench/run.sh -compare bench/ledger/PR<a>.json bench/ledger/PR<b>.json
ledger:
	bash tools/pipebench/run.sh -runs 3 -trace 1 -label PR$(PR) -o bench/ledger/PR$(PR).json

# fuzz smoke-runs the codec fuzzers (probe report parser, fixed-point
# float formatter, TBv1 trace reader, format sniffer, segment merge
# against its oracle) for $(FUZZTIME) each. The committed corpora under
# testdata/fuzz replay on every plain `go test` run; this target
# explores new inputs.
fuzz:
	$(GO) test ./internal/probe/ -run '^$$' -fuzz '^FuzzParseBytes$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/probe/ -run '^$$' -fuzz '^FuzzAppendFixed$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzReadAny$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzMergeSegmentStreams$$' -fuzztime $(FUZZTIME)

# Trace doctor knobs: which sim seeds the differential suite replays and
# how many simulated days per seed (the full paper run is 77 days; 7 is
# enough to exercise outages, reboots and session churn in CI time).
DOCTORSEEDS ?= 1,2,3
DOCTORDAYS ?= 7

# doctor is the validation gate: for every seed it re-runs the repo's
# equivalence claims (one vs four collector shards, clean and
# fault-injected; CSV/TBv1 round trips; the analysis engine fed from a
# dataset, a TBv1 stream and unmerged segments)
# and invariant-checks the collected trace in both formats; then the
# negative leg writes the corrupted-fixture corpus and asserts -check
# flags every fixture (and does not flag the clean one).
doctor:
	$(GO) run ./tools/tracedoctor -selftest -seeds $(DOCTORSEEDS) -days $(DOCTORDAYS)
	@dir=$$(mktemp -d); \
	trap 'rm -rf $$dir' EXIT; \
	$(GO) run ./tools/tracedoctor -write-corpus $$dir >/dev/null || exit 1; \
	$(GO) run ./tools/tracedoctor -check $$dir/clean.csv >/dev/null \
	    || { echo "doctor: clean fixture flagged"; exit 1; }; \
	for f in $$dir/*.csv; do \
	    case $$f in */clean.csv) continue;; esac; \
	    if $(GO) run ./tools/tracedoctor -check $$f >/dev/null 2>&1; then \
	        echo "doctor: undetected corruption in $$f"; exit 1; \
	    fi; \
	done; \
	echo "doctor: corrupted-fixture corpus ok"

# Anomaly-detection precision/recall knobs: which sim seeds the labeled
# fault-injection scenarios replay over and how many simulated days per
# seed (≥ 12 so the seasonal availability baselines get a clean first
# week before the week-2 injection windows).
ANOMALYSEEDS ?= 1,2,3
ANOMALYDAYS ?= 12

# anomaly is the detection-quality gate: replay the labeled injection
# scenarios (collapses, reboot storms, SMART jumps, stuck sensors, usage
# drift) over $(ANOMALYSEEDS) and score the streaming detectors' events
# against the schedule. Gating — red means a detector dropped below the
# precision/recall floors (0.90 / 0.80 per kind, aggregated over seeds).
anomaly:
	$(GO) run ./tools/anomalybench -seeds $(ANOMALYSEEDS) -days $(ANOMALYDAYS)

# Scenario claim-set knobs: which sim seeds the bundled scenarios
# (lockdown, refresh-year, server-mix, multi-campus) replay over. Each
# scenario runs at its own length against a baseline of the same length
# and seed.
SCENARIOSEEDS ?= 1,2,3

# scenarios is the scenario-engine gate: every bundled scenario's
# documented claim set (directional movement of availability, cluster
# equivalence and harvest work against baseline) must hold on each
# seed, every collected trace must be doctor-clean (lifetime stamps
# included), and the lockdown run — a slow regime shift, the labelled
# negative corpus — must produce zero availability-collapse pages from
# the streaming detectors.
scenarios:
	$(GO) run ./tools/scenariobench -seeds $(SCENARIOSEEDS)

# scenario-longhaul replays the hardware-refresh scenario over a full
# simulated year through the 8-shard collector — the Grid'5000-class
# long-trace arm. Minutes of wall time, so CI runs it on a schedule
# (see ci.yml), not per push.
LONGHAUL_DAYS ?= 364
LONGHAUL_SHARDS ?= 8

scenario-longhaul:
	$(GO) run ./tools/scenariobench -scenarios refresh-year,lockdown -seeds $(SCENARIOSEEDS) \
	    -days $(LONGHAUL_DAYS) -shards $(LONGHAUL_SHARDS)

# gridscale is the sharded-collection gate: probe a 100k-machine
# arithmetic fleet across 8 shards, roll each shard's samples into
# time-chunked TBv1 segments, check the manifest, and stream-compact the
# segments into one canonical trace — all under an enforced heap ceiling
# of 64 MB per shard (see TestGridScale). Gating — a red run means some
# path materialises the fleet dataset and sharded collection no longer
# bounds per-shard memory. The iteration count is compressed (12 vs the
# paper's 7392); the resident state does not depend on it. At this size
# TestGridMergedDigest also replays pipebench's grid_shards layout for
# seeds 1-3 and holds the merged bytes to the ledger's digests.
GRIDSCALE_MACHINES ?= 100000
GRIDSCALE_ITERS ?= 12

gridscale:
	GRIDSCALE_MACHINES=$(GRIDSCALE_MACHINES) GRIDSCALE_ITERS=$(GRIDSCALE_ITERS) \
	    $(GO) test . -run '^TestGrid(Scale|MergedDigest)$$' -v -count 1 -timeout 20m

# stream-smoke is the out-of-core gate: stream-analyze a TBv1 trace
# several times larger than an enforced soft memory limit and assert
# peak live heap stays under the ceiling (see TestAllStreamMemoryCeiling).
# Gating — a red run means some code path rematerialises the dataset
# and `analyze -stream` no longer delivers constant-memory analysis.
stream-smoke:
	$(GO) test ./internal/analysis/ -run '^TestAllStreamMemoryCeiling$$' -v -count 1

# Query-service gate knobs: where the smoke server listens and the
# closed-loop throughput floor queryload must clear. The floor is the
# paper target (10⁵ req/s on cached aggregates); a 1-core runner clears
# it with >10× headroom, so red means the cache-hit path regressed, not
# that the runner was slow.
SERVEADDR ?= 127.0.0.1:9191
QUERYFLOOR ?= 100000

# serve-smoke is the query-service gate: start queryd on a seeded
# 3-day simulated trace, assert every /api endpoint answers 200, assert
# the strong-ETag revalidation round-trip returns 304; then serve the
# same 3-day run from a labmon-written TBv1 file with queryd -stream and
# assert every /api endpoint (heatmap included) answers 200 there too;
# then drive the cached hot path with tools/queryload — shedding must
# hold the served p99 under overload (-saturate) and throughput must
# clear $(QUERYFLOOR). The latency/throughput curve lands in
# BENCH_PR9.json (CI uploads it as a non-gating artifact).
serve-smoke:
	@set -e; \
	tmp=$$(mktemp -d); bin=$$tmp/queryd; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$bin ./cmd/queryd; \
	$(GO) build -o $$tmp/labmon ./cmd/labmon; \
	$$tmp/labmon -seed 1 -days 3 -trace $$tmp/t.tb -quiet; \
	for src in "-sim-days 3 -seed 1" "-stream $$tmp/t.tb"; do \
	    $$bin -addr $(SERVEADDR) $$src -hold 60s & pid=$$!; \
	    for i in $$(seq 1 150); do \
	        curl -sf http://$(SERVEADDR)/api/epoch >/dev/null 2>&1 && break; \
	        sleep 0.2; \
	    done; \
	    for ep in epoch summary availability labs machines weekly equivalence uptimes heatmap events; do \
	        code=$$(curl -s -o /dev/null -w '%{http_code}' http://$(SERVEADDR)/api/$$ep); \
	        [ "$$code" = 200 ] || { echo "serve-smoke: queryd $$src: /api/$$ep -> $$code (want 200)"; exit 1; }; \
	    done; \
	    echo "serve-smoke: queryd $$src: all /api endpoints 200"; \
	    case $$src in -stream*) ;; *) \
	        etag=$$(curl -sI http://$(SERVEADDR)/api/summary | tr -d '\r' | awk 'tolower($$1)=="etag:"{print $$2}'); \
	        [ -n "$$etag" ] || { echo "serve-smoke: no ETag on /api/summary"; exit 1; }; \
	        code=$$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $$etag" http://$(SERVEADDR)/api/summary); \
	        [ "$$code" = 304 ] || { echo "serve-smoke: revalidation -> $$code (want 304)"; exit 1; }; \
	        echo "serve-smoke: ETag round-trip 304 ok ($$etag)";; \
	    esac; \
	    kill $$pid 2>/dev/null; wait $$pid 2>/dev/null || true; \
	done; \
	$(GO) run ./tools/queryload -sim-days 3 -seed 1 \
	    -endpoints epoch,summary,availability,heatmap \
	    -duration 1s -saturate -floor $(QUERYFLOOR) -o BENCH_PR9.json

# telemetry-demo runs the live collector with the metrics endpoint and
# span trace enabled, scrapes it mid-run, and fails if /metrics or
# /healthz do not answer.
telemetry-demo:
	@rm -f /tmp/winlab-spans.jsonl
	@$(GO) run ./cmd/ddcd -iters 40 -period 200ms -failp 0.25 -retries 2 \
	    -breaker-k 3 -metrics-addr 127.0.0.1:9190 \
	    -trace-out /tmp/winlab-spans.jsonl & \
	pid=$$!; \
	sleep 3; \
	echo "--- /metrics (ddc_* excerpt) ---"; \
	curl -sf http://127.0.0.1:9190/metrics | grep '^ddc_' || { kill $$pid; exit 1; }; \
	echo "--- /healthz ---"; \
	curl -sf http://127.0.0.1:9190/healthz || { kill $$pid; exit 1; }; \
	echo "--- /spans?n=2 ---"; \
	curl -sf 'http://127.0.0.1:9190/spans?n=2' || { kill $$pid; exit 1; }; \
	wait $$pid; \
	echo "--- span trace ---"; \
	head -2 /tmp/winlab-spans.jsonl; \
	wc -l < /tmp/winlab-spans.jsonl | xargs echo "spans:"
