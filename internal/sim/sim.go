// Package sim implements the discrete-event simulation engine that drives
// the fleet of simulated laboratory machines.
//
// The engine is deliberately minimal: a virtual clock, a binary-heap event
// queue with stable FIFO ordering for simultaneous events, and helpers for
// recurring events. Machines and the behaviour model schedule closures; the
// DDC collector schedules its 15-minute probing iterations the same way.
//
// The earliest pending event is held in a front slot outside the heap. A
// serial chain — an event whose handler schedules its successor a moment
// ahead, before anything else that is queued, which is what the
// collector's probe sweep does a million times a run — therefore never
// touches the heap: it is put in the slot and taken from it in O(1).
// Firing order is the (At, seq) total order either way.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is a scheduled closure. The closure receives the engine so it can
// schedule follow-up events.
type Event struct {
	At   time.Time
	Name string // for tracing/debugging
	Fn   func(*Engine)

	seq int // tiebreaker: FIFO among simultaneous events
	pos int // heap index + 1, or one of the states below
}

// Event.pos states other than a heap position. Idle is the zero value, so
// a caller-owned Event starts out schedulable.
const (
	posIdle      = 0 // never scheduled, or fired
	posFront     = -1
	posCancelled = -2
)

// Cancelled reports whether the event was removed before firing.
func (e *Event) Cancelled() bool { return e.pos == posCancelled }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].At.Equal(q[j].At) {
		return q[i].At.Before(q[j].At)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].pos = i + 1
	q[j].pos = j + 1
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	*q = append(*q, e)
	e.pos = len(*q)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.pos = posIdle
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulator with a virtual clock.
type Engine struct {
	now time.Time
	// front, when set, fires before everything in queue; when nil the
	// earliest event is queue[0].
	front  *Event
	queue  eventQueue
	seq    int
	fired  int64
	tracer func(*Event)
}

// New creates an engine whose clock starts at start.
func New(start time.Time) *Engine {
	return &Engine{now: start}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() int64 { return e.fired }

// SetTracer installs a hook invoked before each event fires (nil disables).
func (e *Engine) SetTracer(fn func(*Event)) { e.tracer = fn }

// At schedules fn at absolute time t. Scheduling in the past panics: it
// indicates a model bug that would silently reorder causality.
func (e *Engine) At(t time.Time, name string, fn func(*Engine)) *Event {
	ev := &Event{Name: name, Fn: fn}
	e.schedule(ev, t)
	return ev
}

// Reschedule arms a caller-owned event (its Name and Fn set by the
// caller) to fire after delay d, exactly as After would schedule a new
// one: it takes the next sequence number, so it fires after everything
// already scheduled for the same instant. A handler that re-arms its own
// event this way runs a chain without allocating an Event per link.
// Rescheduling an event that is still pending panics — cancel it first.
func (e *Engine) Reschedule(ev *Event, d time.Duration) {
	if ev.pos > 0 || ev.pos == posFront {
		panic(fmt.Sprintf("sim: event %q rescheduled while still pending", ev.Name))
	}
	e.schedule(ev, e.now.Add(d))
}

// schedule stamps ev with t and the next sequence number and files it: in
// the front slot when it precedes everything pending — a fresh event has
// the highest sequence number, so that means strictly earlier — otherwise
// in the heap. A displaced front event goes back to the heap.
func (e *Engine) schedule(ev *Event, t time.Time) {
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
func (e *Engine) peek() *Event {
	if e.front != nil {
		return e.front
	}
	if len(e.queue) > 0 {
		return e.queue[0]
	}
	return nil
}

// After schedules fn after delay d.
func (e *Engine) After(d time.Duration, name string, fn func(*Engine)) *Event {
	return e.At(e.now.Add(d), name, fn)
}

// Every schedules fn at start and then every period until (not including)
// the first tick at or after end.
func (e *Engine) Every(start time.Time, period time.Duration, end time.Time, name string, fn func(*Engine)) {
	if period <= 0 {
		panic("sim: Every needs a positive period")
	}
	var tick func(*Engine)
	next := start
	tick = func(en *Engine) {
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
func (e *Engine) Cancel(ev *Event) {
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
func (e *Engine) Step() bool {
	ev := e.front
	switch {
	case ev != nil:
		e.front, ev.pos = nil, posIdle
	case len(e.queue) > 0:
		ev = heap.Pop(&e.queue).(*Event)
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
func (e *Engine) RunUntil(end time.Time) {
	for next := e.peek(); next != nil && next.At.Before(end); next = e.peek() {
		e.Step()
	}
	if e.now.Before(end) {
		e.now = end
	}
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int {
	if e.front != nil {
		return len(e.queue) + 1
	}
	return len(e.queue)
}
