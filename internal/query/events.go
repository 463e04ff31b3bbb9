package query

import (
	"encoding/json"
	"sync"
	"time"

	"winlab/internal/anomaly"
)

// DefaultEventCap bounds the retained anomaly event history.
const DefaultEventCap = 4096

// EventLog retains a bounded history of anomaly events, each tagged with
// the snapshot epoch that was current when it arrived. It feeds the
// /api/events endpoint — the one dynamic endpoint, since events occur
// between epochs and must be visible before the next publish.
//
// Live mode attaches to the detection pipeline's anomaly.Ring via
// Attach; replay mode loads a recorded -events-out JSONL file via Load.
type EventLog struct {
	epoch func() uint64 // current-epoch supplier; nil means 0

	mu    sync.Mutex
	buf   []EventRecord // ring storage
	head  int           // index of the oldest record when full
	n     int           // live records
	total uint64        // records ever added, including evicted
}

// NewEventLog returns a log retaining at most capacity events, tagging
// each with epoch() at arrival time. capacity < 1 means DefaultEventCap.
func NewEventLog(capacity int, epoch func() uint64) *EventLog {
	if capacity < 1 {
		capacity = DefaultEventCap
	}
	return &EventLog{epoch: epoch, buf: make([]EventRecord, 0, capacity)}
}

// Attach subscribes the log to a detection ring. Every event the ring
// books is appended here with the then-current epoch. The returned
// detach unsubscribes; it is safe to call more than once.
func (l *EventLog) Attach(r *anomaly.Ring) (detach func()) {
	if l == nil || r == nil {
		return func() {}
	}
	return r.Tap(l.Add)
}

// Add appends one event with the current epoch.
func (l *EventLog) Add(e anomaly.Event) {
	if l == nil {
		return
	}
	var ep uint64
	if l.epoch != nil {
		ep = l.epoch()
	}
	l.mu.Lock()
	l.push(EventRecord{Epoch: ep, Event: e})
	l.mu.Unlock()
}

// Load bulk-appends recorded events (a replayed -events-out JSONL file),
// all tagged with the given epoch.
func (l *EventLog) Load(es []anomaly.Event, epoch uint64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	for _, e := range es {
		l.push(EventRecord{Epoch: epoch, Event: e})
	}
	l.mu.Unlock()
}

// push books one record, evicting the oldest when full. Caller holds mu.
func (l *EventLog) push(r EventRecord) {
	l.total++
	if l.n < cap(l.buf) {
		l.buf = append(l.buf, r)
		l.n++
		return
	}
	l.buf[l.head] = r
	l.head = (l.head + 1) % l.n
}

// Len returns the number of retained events.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// snapshot copies the retained records in arrival order, filtered to
// epoch >= sinceEpoch and event time >= sinceTime (zero values disable a
// filter), bounded to the most recent max (max < 1 means all).
func (l *EventLog) snapshot(sinceEpoch uint64, sinceTime time.Time, max int) (recs []EventRecord, total uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs = make([]EventRecord, 0, l.n)
	for i := 0; i < l.n; i++ {
		r := &l.buf[(l.head+i)%l.n]
		if r.Epoch < sinceEpoch {
			continue
		}
		if !sinceTime.IsZero() && r.Event.Time.Before(sinceTime) {
			continue
		}
		recs = append(recs, *r)
	}
	if max > 0 && len(recs) > max {
		recs = recs[len(recs)-max:]
	}
	return recs, l.total
}

// encode marshals the /api/events response document. It is the only
// response built per request rather than per epoch.
func (l *EventLog) encode(sinceEpoch uint64, sinceTime time.Time, max int) ([]byte, error) {
	ev := &Events{}
	if l != nil {
		if l.epoch != nil {
			ev.Epoch = l.epoch()
		}
		ev.Events, ev.Total = l.snapshot(sinceEpoch, sinceTime, max)
	} else {
		ev.Events = []EventRecord{}
	}
	return json.Marshal(ev)
}
