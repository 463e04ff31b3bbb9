package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// The engine as it stood before the hand-written 4-ary heap — its queue
// on container/heap, ordered by time.Time comparisons — kept verbatim
// (renamed) as the oracle FuzzEngineOrder holds the engine to.

// Event is a scheduled closure. The closure receives the engine so it can
// schedule follow-up events.
type oracleEvent struct {
	At   time.Time
	Name string // for tracing/debugging
	Fn   func(*oracleEngine)

	seq int // tiebreaker: FIFO among simultaneous events
	pos int // heap index + 1, or one of the states below
}

// Cancelled reports whether the event was removed before firing.
func (e *oracleEvent) Cancelled() bool { return e.pos == posCancelled }

type oracleQueue []*oracleEvent

func (q oracleQueue) Len() int { return len(q) }
func (q oracleQueue) Less(i, j int) bool {
	if !q[i].At.Equal(q[j].At) {
		return q[i].At.Before(q[j].At)
	}
	return q[i].seq < q[j].seq
}
func (q oracleQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].pos = i + 1
	q[j].pos = j + 1
}
func (q *oracleQueue) Push(x any) {
	e := x.(*oracleEvent)
	*q = append(*q, e)
	e.pos = len(*q)
}
func (q *oracleQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.pos = posIdle
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulator with a virtual clock.
type oracleEngine struct {
	now time.Time
	// front, when set, fires before everything in queue; when nil the
	// earliest event is queue[0].
	front  *oracleEvent
	queue  oracleQueue
	seq    int
	fired  int64
	tracer func(*oracleEvent)
}

// New creates an engine whose clock starts at start.
func newOracleEngine(start time.Time) *oracleEngine {
	return &oracleEngine{now: start}
}

// Now returns the current virtual time.
func (e *oracleEngine) Now() time.Time { return e.now }

// Fired returns the number of events executed so far.
func (e *oracleEngine) Fired() int64 { return e.fired }

// SetTracer installs a hook invoked before each event fires (nil disables).
func (e *oracleEngine) SetTracer(fn func(*oracleEvent)) { e.tracer = fn }

// At schedules fn at absolute time t. Scheduling in the past panics: it
// indicates a model bug that would silently reorder causality.
func (e *oracleEngine) At(t time.Time, name string, fn func(*oracleEngine)) *oracleEvent {
	ev := &oracleEvent{Name: name, Fn: fn}
	e.schedule(ev, t)
	return ev
}

// Reschedule arms a caller-owned event (its Name and Fn set by the
// caller) to fire after delay d, exactly as After would schedule a new
// one: it takes the next sequence number, so it fires after everything
// already scheduled for the same instant. A handler that re-arms its own
// event this way runs a chain without allocating an Event per link.
// Rescheduling an event that is still pending panics — cancel it first.
func (e *oracleEngine) Reschedule(ev *oracleEvent, d time.Duration) {
	if ev.pos > 0 || ev.pos == posFront {
		panic(fmt.Sprintf("sim: event %q rescheduled while still pending", ev.Name))
	}
	e.schedule(ev, e.now.Add(d))
}

// schedule stamps ev with t and the next sequence number and files it: in
// the front slot when it precedes everything pending — a fresh event has
// the highest sequence number, so that means strictly earlier — otherwise
// in the heap. A displaced front event goes back to the heap.
func (e *oracleEngine) schedule(ev *oracleEvent, t time.Time) {
	if t.Before(e.now) {
		panic(fmt.Sprintf("sim: event %q scheduled at %s before now %s", ev.Name, t, e.now))
	}
	ev.At, ev.seq = t, e.seq
	e.seq++
	if next := e.peek(); next != nil && !t.Before(next.At) {
		heap.Push(&e.queue, ev)
		return
	}
	if e.front != nil {
		heap.Push(&e.queue, e.front)
	}
	e.front, ev.pos = ev, posFront
}

// peek returns the next event to fire without removing it, or nil.
func (e *oracleEngine) peek() *oracleEvent {
	if e.front != nil {
		return e.front
	}
	if len(e.queue) > 0 {
		return e.queue[0]
	}
	return nil
}

// After schedules fn after delay d.
func (e *oracleEngine) After(d time.Duration, name string, fn func(*oracleEngine)) *oracleEvent {
	return e.At(e.now.Add(d), name, fn)
}

// Every schedules fn at start and then every period until (not including)
// the first tick at or after end.
func (e *oracleEngine) Every(start time.Time, period time.Duration, end time.Time, name string, fn func(*oracleEngine)) {
	if period <= 0 {
		panic("sim: Every needs a positive period")
	}
	var tick func(*oracleEngine)
	next := start
	tick = func(en *oracleEngine) {
		fn(en)
		next = next.Add(period)
		if next.Before(end) {
			en.At(next, name, tick)
		}
	}
	if start.Before(end) {
		e.At(start, name, tick)
	}
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *oracleEngine) Cancel(ev *oracleEvent) {
	switch {
	case ev == nil:
		return
	case ev.pos > 0:
		heap.Remove(&e.queue, ev.pos-1)
	case ev.pos == posFront:
		e.front = nil
	default:
		return
	}
	ev.pos = posCancelled
}

// Step fires the next event. It reports false when the queue is empty.
func (e *oracleEngine) Step() bool {
	ev := e.front
	switch {
	case ev != nil:
		e.front, ev.pos = nil, posIdle
	case len(e.queue) > 0:
		ev = heap.Pop(&e.queue).(*oracleEvent)
	default:
		return false
	}
	e.now = ev.At
	if e.tracer != nil {
		e.tracer(ev)
	}
	e.fired++
	ev.Fn(e)
	return true
}

// RunUntil fires events until the queue is empty or the next event is at or
// after end; the clock is then advanced to end.
func (e *oracleEngine) RunUntil(end time.Time) {
	for next := e.peek(); next != nil && next.At.Before(end); next = e.peek() {
		e.Step()
	}
	if e.now.Before(end) {
		e.now = end
	}
}

// Run fires events until the queue is empty.
func (e *oracleEngine) Run() {
	for e.Step() {
	}
}

// Pending returns the number of scheduled events.
func (e *oracleEngine) Pending() int {
	if e.front != nil {
		return len(e.queue) + 1
	}
	return len(e.queue)
}
