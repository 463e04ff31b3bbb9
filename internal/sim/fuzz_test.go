package sim

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// engineOps is the surface FuzzEngineOrder drives, over the engine and
// over its oracle alike. Events are named by id: ids below ownedEvents
// are caller-owned events armed with Reschedule, the rest come from At.
type engineOps interface {
	at(t time.Time, id int)
	reschedule(id int, d time.Duration)
	cancel(id int)
	armed(id int) bool // pending, so Reschedule would panic
	cancelled(id int) bool
	step() bool
	runUntil(t time.Time)
	now() time.Time
	pending() int
	fired() int64
}

const ownedEvents = 3

type engineAdapter struct {
	e      *Engine
	owned  [ownedEvents]Event
	events map[int]*Event
	fire   func(int)
}

func newEngineAdapter(fire func(int)) *engineAdapter {
	a := &engineAdapter{e: New(t0), events: map[int]*Event{}, fire: fire}
	for id := range a.owned {
		id := id
		a.owned[id] = Event{Name: fmt.Sprint(id), Fn: func(*Engine) { fire(id) }}
		a.events[id] = &a.owned[id]
	}
	return a
}

func (a *engineAdapter) at(t time.Time, id int) {
	a.events[id] = a.e.At(t, fmt.Sprint(id), func(*Engine) { a.fire(id) })
}
func (a *engineAdapter) reschedule(id int, d time.Duration) { a.e.Reschedule(&a.owned[id], d) }
func (a *engineAdapter) cancel(id int)                      { a.e.Cancel(a.events[id]) }
func (a *engineAdapter) armed(id int) bool {
	return a.owned[id].pos != posIdle && !a.owned[id].Cancelled()
}
func (a *engineAdapter) cancelled(id int) bool { return a.events[id].Cancelled() }
func (a *engineAdapter) step() bool            { return a.e.Step() }
func (a *engineAdapter) runUntil(t time.Time)  { a.e.RunUntil(t) }
func (a *engineAdapter) now() time.Time        { return a.e.Now() }
func (a *engineAdapter) pending() int          { return a.e.Pending() }
func (a *engineAdapter) fired() int64          { return a.e.Fired() }

type oracleAdapter struct {
	e      *oracleEngine
	owned  [ownedEvents]oracleEvent
	events map[int]*oracleEvent
	fire   func(int)
}

func newOracleAdapter(fire func(int)) *oracleAdapter {
	a := &oracleAdapter{e: newOracleEngine(t0), events: map[int]*oracleEvent{}, fire: fire}
	for id := range a.owned {
		id := id
		a.owned[id] = oracleEvent{Name: fmt.Sprint(id), Fn: func(*oracleEngine) { fire(id) }}
		a.events[id] = &a.owned[id]
	}
	return a
}

func (a *oracleAdapter) at(t time.Time, id int) {
	a.events[id] = a.e.At(t, fmt.Sprint(id), func(*oracleEngine) { a.fire(id) })
}
func (a *oracleAdapter) reschedule(id int, d time.Duration) { a.e.Reschedule(&a.owned[id], d) }
func (a *oracleAdapter) cancel(id int)                      { a.e.Cancel(a.events[id]) }
func (a *oracleAdapter) armed(id int) bool {
	return a.owned[id].pos != posIdle && !a.owned[id].Cancelled()
}
func (a *oracleAdapter) cancelled(id int) bool { return a.events[id].Cancelled() }
func (a *oracleAdapter) step() bool            { return a.e.Step() }
func (a *oracleAdapter) runUntil(t time.Time)  { a.e.RunUntil(t) }
func (a *oracleAdapter) now() time.Time        { return a.e.Now() }
func (a *oracleAdapter) pending() int          { return a.e.Pending() }
func (a *oracleAdapter) fired() int64          { return a.e.Fired() }

// fuzzDelays are the offsets the fuzzer schedules at: equal instants are
// common, and the century-long ones carry the clock past 2262, where
// instants have no exact UnixNano and the heap compares time.Time.
var fuzzDelays = []time.Duration{0, 0, time.Nanosecond, time.Second, time.Second, 7 * time.Second,
	time.Hour, 100 * 365 * 24 * time.Hour, math.MaxInt64}

// driveEngine interprets data as a sequence of At/Reschedule/Cancel/Step/
// RunUntil calls — from outside and from inside handlers — and returns
// what was observed: each firing with its instant and the queue size,
// and the state after every top-level call.
func driveEngine(newOps func(fire func(int)) engineOps, data []byte) []string {
	var (
		log    []string
		pos    int
		ids    = ownedEvents
		eng    engineOps
		mutate func(n int)
	)
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	eng = newOps(func(id int) {
		log = append(log, fmt.Sprintf("fire %d at %v, %d pending, %d fired", id, eng.now(), eng.pending(), eng.fired()))
		mutate(next() % 3)
	})
	mutate = func(n int) {
		for ; n > 0 && pos < len(data); n-- {
			op, d := next(), fuzzDelays[next()%len(fuzzDelays)]
			switch op % 3 {
			case 0:
				if eng.pending() < 100 {
					eng.at(eng.now().Add(d), ids)
					ids++
				}
			case 1:
				id := next() % ids
				eng.cancel(id)
				log = append(log, fmt.Sprintf("cancel %d: %v", id, eng.cancelled(id)))
			default:
				if id := next() % ownedEvents; !eng.armed(id) {
					eng.reschedule(id, d)
				}
			}
		}
	}
	for pos < len(data) {
		switch op := next(); op % 3 {
		case 0:
			mutate(op/3%4 + 1)
		case 1:
			log = append(log, fmt.Sprintf("step %v", eng.step()))
		default:
			eng.runUntil(eng.now().Add(fuzzDelays[next()%len(fuzzDelays)]))
		}
		log = append(log, fmt.Sprintf("now %v, %d pending, %d fired", eng.now(), eng.pending(), eng.fired()))
	}
	for eng.step() {
	}
	return append(log, fmt.Sprintf("drained at %v, %d fired", eng.now(), eng.fired()))
}

// FuzzEngineOrder holds the engine to its oracle (engine_oracle_test.go):
// any sequence of At/After/Reschedule/Cancel/Step/RunUntil calls must fire
// the same events in the same order at the same instants, with the same
// queue sizes and cancellation results. `make fuzz` runs this with -fuzz
// for a bounded time; under plain `go test` the seed corpus still
// executes.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 3, 2, 0, 6, 1, 1, 1, 1})
	f.Add([]byte{9, 0, 4, 0, 0, 2, 0, 0, 8, 2, 1, 4, 1, 1, 1, 1, 1})             // a century apart, then past 2262
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 4, 0, 1, 0, 1, 7, 8, 1, 1, 2, 8, 1, 1, 1}) // equal instants, cancels
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got := driveEngine(func(fire func(int)) engineOps { return newEngineAdapter(fire) }, data)
		want := driveEngine(func(fire func(int)) engineOps { return newOracleAdapter(fire) }, data)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("step %d: engine %q, oracle %q", i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("engine logged %d steps, oracle %d", len(got), len(want))
		}
	})
}
