package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark from
// outside the layer. Spans of one round share Round; Parent is the span
// that caused this one (0 for a round's root).
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Round    int    `json:"round"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Count    int64  `json:"count"`
	Bytes    int64  `json:"bytes"`
	// Allocs is the process-wide number of heap objects allocated while
	// the span was open; spans that overlap on two goroutines each see
	// the other's allocations.
	Allocs uint64 `json:"allocs"`
}

// tracer keeps spans in memory until the workload ends. The nil tracer
// records nothing, so the untraced run executes the same workload code.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	next  int
	spans []Span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	tr     *tracer
	span   Span
	allocs uint64
}

func heapAllocObjects() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s[:])
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// start opens a span under parent (nil for a round's root).
func (t *tracer) start(parent *openSpan, round int, name string) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	o := &openSpan{tr: t, span: Span{ID: id, Workload: t.workload, Round: round, Name: name}}
	if parent != nil {
		o.span.Parent = parent.span.ID
	}
	o.allocs = heapAllocObjects()
	o.span.StartNS = time.Since(t.t0).Nanoseconds()
	return o
}

// end closes the span with the work it did: count items, bytes moved.
func (o *openSpan) end(count, bytes int64) {
	if o == nil {
		return
	}
	o.span.EndNS = time.Since(o.tr.t0).Nanoseconds()
	o.span.Allocs = heapAllocObjects() - o.allocs
	o.span.Count, o.span.Bytes = count, bytes
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.span)
	o.tr.mu.Unlock()
}

// done returns the recorded spans ordered by start.
func (t *tracer) done() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]Span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out
}

// writeSpansJSONL writes one span per line.
func writeSpansJSONL(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfNS is the span's duration minus the part of its interval that its
// child spans cover. Children may overlap each other (two shard
// goroutines), so the covered part is the union of their intervals.
func selfNS(s Span, children []Span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := c.StartNS, c.EndNS
		if lo < s.StartNS {
			lo = s.StartNS
		}
		if hi > s.EndNS {
			hi = s.EndNS
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, end int64 = 0, s.StartNS
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			covered += x[1] - end
			end = x[1]
		}
	}
	return s.EndNS - s.StartNS - covered
}

// StageRow is one line of the stage table: every span of one name,
// summed over the workload's rounds.
type StageRow struct {
	Stage  string  `json:"stage"`
	Calls  int     `json:"calls"`
	WallS  float64 `json:"wall_s"`
	SelfS  float64 `json:"self_s"`
	Share  float64 `json:"share_of_round"` // self time ÷ total round wall
	Bytes  int64   `json:"bytes"`
	Allocs uint64  `json:"allocs"`

	walls []float64 // per-call wall seconds
	selfs []float64 // per-call self seconds
	count int64
}

const rootSpan = "round"

// stageTable folds spans into one row per name, in first-seen order.
func stageTable(spans []Span) []*StageRow {
	kids := map[int][]Span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	var rows []*StageRow
	byName := map[string]*StageRow{}
	var roundNS int64
	for _, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &StageRow{Stage: s.Name}
			byName[s.Name] = r
			rows = append(rows, r)
		}
		wall, self := s.EndNS-s.StartNS, selfNS(s, kids[s.ID])
		if s.Name == rootSpan {
			roundNS += wall
		}
		r.Calls++
		r.WallS += float64(wall) / 1e9
		r.SelfS += float64(self) / 1e9
		r.walls = append(r.walls, float64(wall)/1e9)
		r.selfs = append(r.selfs, float64(self)/1e9)
		r.Bytes += s.Bytes
		r.Allocs += s.Allocs
		r.count += s.Count
	}
	for _, r := range rows {
		if roundNS > 0 {
			r.Share = r.SelfS / (float64(roundNS) / 1e9)
		}
	}
	return rows
}

func findStage(rows []*StageRow, name string) *StageRow {
	for _, r := range rows {
		if r.Stage == name {
			return r
		}
	}
	return nil
}

// printStageTable renders the table; the "round" row's self time is what
// no stage span covers (glue between stages).
func printStageTable(w io.Writer, workload string, rows []*StageRow) {
	fmt.Fprintf(w, "stage table: %s\n", workload)
	fmt.Fprintf(w, "  %-22s %7s %10s %10s %7s %14s %12s\n", "stage", "calls", "wall_s", "self_s", "share", "bytes", "allocs")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %7d %10.4f %10.4f %6.1f%% %14d %12d\n",
			r.Stage, r.Calls, r.WallS, r.SelfS, 100*r.Share, r.Bytes, r.Allocs)
	}
}
