// Package sim implements the discrete-event simulation engine that drives
// the fleet of simulated laboratory machines.
//
// The engine is deliberately minimal: a virtual clock, a 4-ary-heap event
// queue with stable FIFO ordering for simultaneous events, and helpers for
// recurring events. Machines and the behaviour model schedule closures; the
// DDC collector schedules its 15-minute probing iterations the same way.
//
// The heap is written out for *Event rather than run through
// container/heap: no interface calls, and each event carries its instant
// as an int64 key (UnixNano) next to its sequence number, so ordering two
// events is two integer compares. Four children per node halve the depth
// of a binary heap, which is what a pop of a model event pays for. An
// instant whose UnixNano does not exist (before 1678 or after 2262) keys
// as the int64 extreme on its side, and two such events fall back to
// comparing their time.Time.
//
// The earliest pending event is held in a front slot outside the heap. A
// serial chain — an event whose handler schedules its successor a moment
// ahead, before anything else that is queued, which is what the
// collector's probe sweep does a million times a run — therefore never
// touches the heap: it is put in the slot and taken from it in O(1).
// Firing order is the (At, seq) total order either way.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Event is a scheduled closure. The closure receives the engine so it can
// schedule follow-up events.
type Event struct {
	At   time.Time
	Name string // for tracing/debugging
	Fn   func(*Engine)

	key int64 // At as the heap compares it: see timeKey
	seq int   // tiebreaker: FIFO among simultaneous events
	pos int   // heap index + 1, or one of the states below
}

// Event.pos states other than a heap position. Idle is the zero value, so
// a caller-owned Event starts out schedulable.
const (
	posIdle      = 0 // never scheduled, or fired
	posFront     = -1
	posCancelled = -2
)

// timeKey is t.UnixNano() when that is exact, and otherwise the int64
// extreme on t's side of the representable range — so keys order as
// instants do, and equal keys at an extreme are the only ones that need
// their time.Time compared.
func timeKey(t time.Time) int64 {
	switch sec := t.Unix(); {
	case sec < math.MinInt64/int64(time.Second):
		return math.MinInt64
	case sec >= math.MaxInt64/int64(time.Second):
		return math.MaxInt64
	}
	return t.UnixNano()
}

// before is the engine's total order: (At, seq).
func before(a, b *Event) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if (a.key == math.MinInt64 || a.key == math.MaxInt64) && !a.At.Equal(b.At) {
		return a.At.Before(b.At)
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of events under before; each event's
// pos is its index + 1.
type eventQueue []*Event

func (q eventQueue) up(i int, ev *Event) {
	for i > 0 {
		parent := (i - 1) / 4
		pe := q[parent]
		if !before(ev, pe) {
			break
		}
		q[i], pe.pos = pe, i+1
		i = parent
	}
	q[i], ev.pos = ev, i+1
}

// down sifts ev down from index i and reports whether it moved.
func (q eventQueue) down(i int, ev *Event) bool {
	i0, n := i, len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m, me := c, q[c]
		for j := c + 1; j < c+4 && j < n; j++ {
			if before(q[j], me) {
				m, me = j, q[j]
			}
		}
		if !before(me, ev) {
			break
		}
		q[i], me.pos = me, i+1
		i = m
	}
	q[i], ev.pos = ev, i+1
	return i > i0
}

func (q *eventQueue) push(ev *Event) {
	*q = append(*q, ev)
	q.up(len(*q)-1, ev)
}

// remove takes out the event at index i.
func (q *eventQueue) remove(i int) *Event {
	old := *q
	n := len(old) - 1
	ev, last := old[i], old[n]
	old[n] = nil
	*q = old[:n]
	if i < n && !q.down(i, last) {
		q.up(i, last)
	}
	ev.pos = posIdle
	return ev
}

// Engine is a discrete-event simulator with a virtual clock.
type Engine struct {
	now time.Time
	// front, when set, fires before everything in queue; when nil the
	// earliest event is queue[0].
	front *Event
	queue eventQueue
	seq   int
	fired int64
}

// New creates an engine whose clock starts at start.
func New(start time.Time) *Engine {
	return &Engine{now: start}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() int64 { return e.fired }

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
	ev.At, ev.key, ev.seq = t, timeKey(t), e.seq
	e.seq++
	if next := e.peek(); next != nil && !before(ev, next) {
		e.queue.push(ev)
		return
	}
	if e.front != nil {
		e.queue.push(e.front)
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
		e.queue.remove(ev.pos - 1)
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
		ev = e.queue.remove(0)
	default:
		return false
	}
	e.now = ev.At
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
