package sim

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"
)

var t0 = time.Date(2003, 10, 6, 0, 0, 0, 0, time.UTC)

// Cancelled reports whether the event was removed before firing.
func (e *Event) Cancelled() bool { return e.pos == posCancelled }

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

func TestEventOrdering(t *testing.T) {
	e := New(t0)
	var order []string
	e.At(t0.Add(2*time.Hour), "b", func(*Engine) { order = append(order, "b") })
	e.At(t0.Add(1*time.Hour), "a", func(*Engine) { order = append(order, "a") })
	e.At(t0.Add(3*time.Hour), "c", func(*Engine) { order = append(order, "c") })
	e.Run()
	if got := len(order); got != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("order = %v", order)
	}
	if e.Fired() != 3 {
		t.Errorf("Fired = %d", e.Fired())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := New(t0)
	var order []int
	at := t0.Add(time.Hour)
	for i := 0; i < 10; i++ {
		i := i
		e.At(at, "x", func(*Engine) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := New(t0)
	var seen time.Time
	e.After(90*time.Minute, "tick", func(en *Engine) { seen = en.Now() })
	e.Run()
	if !seen.Equal(t0.Add(90 * time.Minute)) {
		t.Errorf("Now() during event = %v", seen)
	}
	if !e.Now().Equal(t0.Add(90 * time.Minute)) {
		t.Errorf("final Now() = %v", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New(t0)
	e.After(time.Hour, "x", func(en *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		en.At(t0, "past", func(*Engine) {})
	})
	e.Run()
}

func TestCancel(t *testing.T) {
	e := New(t0)
	fired := false
	ev := e.After(time.Hour, "x", func(*Engine) { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Error("event does not report cancelled")
	}
	// Double cancel and nil cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestCancelOneOfMany(t *testing.T) {
	e := New(t0)
	var fired []string
	a := e.After(1*time.Hour, "a", func(*Engine) { fired = append(fired, "a") })
	e.After(2*time.Hour, "b", func(*Engine) { fired = append(fired, "b") })
	e.After(3*time.Hour, "c", func(*Engine) { fired = append(fired, "c") })
	e.Cancel(a)
	e.Run()
	if len(fired) != 2 || fired[0] != "b" || fired[1] != "c" {
		t.Errorf("fired = %v", fired)
	}
}

func TestCancelFiredEventNoop(t *testing.T) {
	e := New(t0)
	var ev *Event
	ev = e.After(time.Hour, "x", func(*Engine) {})
	e.Run()
	e.Cancel(ev) // must not panic or corrupt the (empty) heap
	if e.Pending() != 0 {
		t.Error("pending after run")
	}
}

func TestEvery(t *testing.T) {
	e := New(t0)
	var ticks []time.Time
	end := t0.Add(61 * time.Minute)
	e.Every(t0, 15*time.Minute, end, "tick", func(en *Engine) { ticks = append(ticks, en.Now()) })
	e.Run()
	if len(ticks) != 5 { // 0, 15, 30, 45, 60
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, tk := range ticks {
		if want := t0.Add(time.Duration(i) * 15 * time.Minute); !tk.Equal(want) {
			t.Errorf("tick %d at %v, want %v", i, tk, want)
		}
	}
}

func TestEveryEmptyRange(t *testing.T) {
	e := New(t0)
	count := 0
	e.Every(t0.Add(time.Hour), time.Minute, t0.Add(time.Hour), "x", func(*Engine) { count++ })
	e.Run()
	if count != 0 {
		t.Errorf("Every with start==end fired %d times", count)
	}
}

func TestEveryBadPeriodPanics(t *testing.T) {
	e := New(t0)
	defer func() {
		if recover() == nil {
			t.Error("Every with zero period did not panic")
		}
	}()
	e.Every(t0, 0, t0.Add(time.Hour), "x", func(*Engine) {})
}

func TestRunUntil(t *testing.T) {
	e := New(t0)
	var fired []string
	e.After(1*time.Hour, "a", func(*Engine) { fired = append(fired, "a") })
	e.After(3*time.Hour, "b", func(*Engine) { fired = append(fired, "b") })
	e.RunUntil(t0.Add(2 * time.Hour))
	if len(fired) != 1 || fired[0] != "a" {
		t.Errorf("fired = %v", fired)
	}
	if !e.Now().Equal(t0.Add(2 * time.Hour)) {
		t.Errorf("Now = %v, want clock advanced to end", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d", e.Pending())
	}
	// Continue to the remaining event.
	e.RunUntil(t0.Add(4 * time.Hour))
	if len(fired) != 2 {
		t.Errorf("second RunUntil: fired = %v", fired)
	}
}

func TestEventsCanSchedule(t *testing.T) {
	e := New(t0)
	depth := 0
	var recurse func(*Engine)
	recurse = func(en *Engine) {
		depth++
		if depth < 5 {
			en.After(time.Minute, "r", recurse)
		}
	}
	e.After(time.Minute, "r", recurse)
	e.Run()
	if depth != 5 {
		t.Errorf("depth = %d", depth)
	}
}

func TestStepOnEmpty(t *testing.T) {
	e := New(t0)
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

// refEvent is one pending event of the reference model the property test
// compares the engine with: a plain list, the next event found by
// scanning for the smallest (at, seq).
type refEvent struct {
	at      time.Time
	seq, id int
}

// TestEngineMatchesReferenceModel drives random At/After/Cancel/Reschedule
// calls — from outside and from inside handlers, with equal instants
// common — through the engine and through a list ordered by (At, seq), and
// requires the same event to fire at every step, with Now, Fired, Pending
// and Cancelled agreeing. The front slot and the heap are an
// implementation of that order, nothing more.
func TestEngineMatchesReferenceModel(t *testing.T) {
	delays := []time.Duration{0, 0, time.Second, time.Second, 2 * time.Second, 7 * time.Second, time.Minute}
	for seed := int64(1); seed <= 30; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		e := New(t0)
		var (
			model  []refEvent // pending, in no particular order
			seq    int        // mirrors the engine's sequence counter
			fired  int64
			owned  [4]Event  // caller-owned, re-armed with Reschedule; ids 0..3
			events []*Event  // every event by id
			mutate func(int) // up to n random calls on the engine and the model
		)
		pendingAt := func(id int) int {
			for i, r := range model {
				if r.id == id {
					return i
				}
			}
			return -1
		}
		fire := func(id int) func(*Engine) {
			return func(en *Engine) {
				next := 0
				for i, r := range model {
					if m := model[next]; r.at.Before(m.at) || r.at.Equal(m.at) && r.seq < m.seq {
						next = i
					}
				}
				want := model[next]
				model = append(model[:next], model[next+1:]...)
				fired++
				if id != want.id || !en.Now().Equal(want.at) {
					t.Fatalf("seed %d: fired event %d at %v, model fires %d at %v",
						seed, id, en.Now(), want.id, want.at)
				}
				if en.Fired() != fired || en.Pending() != len(model) {
					t.Fatalf("seed %d: in handler Fired %d Pending %d, model %d and %d",
						seed, en.Fired(), en.Pending(), fired, len(model))
				}
				mutate(rnd.Intn(4))
			}
		}
		for id := range owned {
			owned[id] = Event{Name: strconv.Itoa(id), Fn: fire(id)}
			events = append(events, &owned[id])
		}
		mutate = func(n int) {
			for ; n > 0; n-- {
				d := delays[rnd.Intn(len(delays))]
				switch op := rnd.Intn(10); {
				case op < 5 && len(model) < 60:
					id := len(events)
					if op%2 == 0 {
						events = append(events, e.At(e.Now().Add(d), strconv.Itoa(id), fire(id)))
					} else {
						events = append(events, e.After(d, strconv.Itoa(id), fire(id)))
					}
					model = append(model, refEvent{e.Now().Add(d), seq, id})
					seq++
				case op < 7:
					id := rnd.Intn(len(events))
					at := pendingAt(id)
					was := events[id].Cancelled()
					e.Cancel(events[id])
					if at >= 0 {
						model = append(model[:at], model[at+1:]...)
					}
					if got, want := events[id].Cancelled(), at >= 0 || was; got != want {
						t.Fatalf("seed %d: event %d Cancelled() = %v, want %v", seed, id, got, want)
					}
				default:
					id := rnd.Intn(len(owned))
					if pendingAt(id) >= 0 {
						continue // re-arming a pending event panics: TestRescheduleWhilePendingPanics
					}
					e.Reschedule(&owned[id], d)
					model = append(model, refEvent{e.Now().Add(d), seq, id})
					seq++
				}
			}
		}
		mutate(8)
		for round := 0; round < 400; round++ {
			switch rnd.Intn(4) {
			case 0:
				mutate(3)
			case 1:
				end := e.Now().Add(delays[rnd.Intn(len(delays))])
				e.RunUntil(end)
				for _, r := range model {
					if r.at.Before(end) {
						t.Fatalf("seed %d: RunUntil(%v) left event %d at %v", seed, end, r.id, r.at)
					}
				}
				if !e.Now().Equal(end) {
					t.Fatalf("seed %d: Now %v after RunUntil(%v)", seed, e.Now(), end)
				}
			default:
				if want := len(model) > 0; e.Step() != want {
					t.Fatalf("seed %d: Step = %v, model says %v", seed, !want, want)
				}
			}
			if e.Fired() != fired || e.Pending() != len(model) {
				t.Fatalf("seed %d: Fired %d Pending %d, model %d and %d",
					seed, e.Fired(), e.Pending(), fired, len(model))
			}
		}
		e.Run()
		if len(model) != 0 || e.Pending() != 0 || e.Fired() != fired {
			t.Fatalf("seed %d: after Run %d events left in the model, Pending %d, Fired %d (model %d)",
				seed, len(model), e.Pending(), e.Fired(), fired)
		}
	}
}

func TestRescheduleWhilePendingPanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		others int // events scheduled earlier, so ev waits in the heap rather than the front slot
	}{{"front-slot", 0}, {"heap", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(t0)
			for i := 0; i < tc.others; i++ {
				e.After(time.Second, "other", func(*Engine) {})
			}
			fired := 0
			ev := Event{Name: "mine", Fn: func(*Engine) { fired++ }}
			e.Reschedule(&ev, time.Minute)
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Reschedule of a pending event did not panic")
					}
				}()
				e.Reschedule(&ev, time.Hour)
			}()
			e.Run()
			// Fired, and cancelled, events may be armed again.
			e.Reschedule(&ev, time.Minute)
			e.Cancel(&ev)
			e.Reschedule(&ev, time.Minute)
			e.Run()
			if fired != 2 || e.Pending() != 0 {
				t.Errorf("fired %d times with %d pending, want 2 and 0", fired, e.Pending())
			}
		})
	}
}

// TestProbeChainStaysOutOfHeap pins the cost model of the front slot: a
// chain that re-arms its own event ahead of everything queued neither
// allocates nor grows the heap.
func TestProbeChainStaysOutOfHeap(t *testing.T) {
	e := New(t0)
	for i := 0; i < 100; i++ {
		e.After(time.Duration(i+1)*time.Hour, "model", func(*Engine) {})
	}
	var chain Event
	chain = Event{Name: "chain", Fn: func(en *Engine) { en.Reschedule(&chain, time.Second) }}
	e.Reschedule(&chain, time.Second)
	allocs := testing.AllocsPerRun(1000, func() {
		if !e.Step() || e.front != &chain || len(e.queue) != 100 {
			t.Fatal("chain event left the front slot")
		}
	})
	if allocs != 0 {
		t.Errorf("one chain step allocates %.0f objects, want 0", allocs)
	}
}

// TestHeapOrdersInstantsWithoutUnixNano: past 2262 an instant has no
// exact UnixNano, every such event keys as math.MaxInt64, and the heap
// must still fire them by time, then FIFO.
func TestHeapOrdersInstantsWithoutUnixNano(t *testing.T) {
	e := New(t0)
	far := t0.Add(math.MaxInt64)
	offsets := []time.Duration{5, 3, 9, 3, 0, 7, 1, 9, 2}
	var got []int
	for i, off := range offsets {
		i := i
		e.At(far.Add(off*time.Second), strconv.Itoa(i), func(*Engine) { got = append(got, i) })
	}
	e.At(t0.Add(time.Second), "near", func(*Engine) { got = append(got, -1) })
	e.Run()
	want := []int{-1, 4, 6, 8, 1, 3, 0, 5, 2, 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fired %v, want %v", got, want)
	}
}
