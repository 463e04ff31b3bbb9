package behavior

import (
	"time"

	"winlab/internal/sim"
)

// This file is the behavior model's scenario surface: regime-shift
// overlays, per-lab calendars (heterogeneous wall clocks, always-on
// server pools) and fleet lifecycle windows. The hooks compose on top
// of the semester model without forking it — an unconfigured model
// takes exactly the pre-scenario code paths, so default traces stay
// byte-identical (asserted by the scenario package's no-op identity
// test).
//
// All setters must be called after NewModel and before Install.

// Overlay modulates the model's stochastic rates over time. Factors
// are multipliers with 1 meaning "unchanged"; a lockdown semester is an
// overlay whose ArrivalFactor ramps from 1 to ~0.1 over two weeks and
// partially recovers later. Implementations must be pure functions of
// t (they are called once per scheduling decision and must not retain
// state, or determinism across runs is lost).
type Overlay interface {
	// ArrivalFactor scales the free-use student arrival rate at t.
	ArrivalFactor(t time.Time) float64
	// AttendanceFactor scales class attendance probability at t.
	AttendanceFactor(t time.Time) float64
	// PowerFactor scales end-of-session and closing-time shutdown
	// probabilities at t (>1: machines are switched off more eagerly).
	PowerFactor(t time.Time) float64
}

// Lifecycle bounds one machine's fleet membership in simulation time.
// A zero Join means "from the start"; a zero Leave means "until the
// end". Between Leave and the trace end the machine is retired: powered
// off, never claimed, never swept.
type Lifecycle struct {
	Machine string
	Join    time.Time
	Leave   time.Time
}

// SetOverlay installs a regime overlay. Call before Install.
func (md *Model) SetOverlay(o Overlay) { md.overlay = o }

// SetLabCalendars installs per-lab opening calendars. Labs not in the
// map keep the config-derived default calendar. Any non-nil map (even
// empty) switches arrivals, class scheduling and closing sweeps to the
// per-lab wall-clock paths. Call before Install.
func (md *Model) SetLabCalendars(cals map[string]Calendar) { md.labCals = cals }

// SetAlwaysOn marks labs as always-on server pools: their machines are
// powered on at the start (or at their join instant), never claimed by
// students or classes, and never swept. Pair with an AlwaysOpen
// calendar in SetLabCalendars. Call before Install.
func (md *Model) SetAlwaysOn(labs []string) {
	if md.alwaysOn == nil {
		md.alwaysOn = make(map[string]bool, len(labs))
	}
	for _, lb := range labs {
		md.alwaysOn[lb] = true
	}
}

// SetLifecycle installs fleet lifecycle windows. Call before Install.
func (md *Model) SetLifecycle(life []Lifecycle) {
	if md.life == nil {
		md.life = make(map[string]Lifecycle, len(life))
	}
	for _, lc := range life {
		md.life[lc.Machine] = lc
	}
}

// scenarioActive reports whether any scenario hook is configured; when
// false, Install and every event path run the exact default code.
func (md *Model) scenarioActive() bool {
	return md.overlay != nil || md.labCals != nil || md.alwaysOn != nil || md.life != nil
}

func (md *Model) arrivalFactor(t time.Time) float64 {
	if md.overlay == nil {
		return 1
	}
	return md.overlay.ArrivalFactor(t)
}

func (md *Model) attendanceFactor(t time.Time) float64 {
	if md.overlay == nil {
		return 1
	}
	return md.overlay.AttendanceFactor(t)
}

func (md *Model) powerFactor(t time.Time) float64 {
	if md.overlay == nil {
		return 1
	}
	return md.overlay.PowerFactor(t)
}

// calFor returns the lab's calendar (the config default when the lab
// has no per-lab override).
func (md *Model) calFor(lb string) Calendar {
	if c, ok := md.labCals[lb]; ok {
		return c
	}
	return md.cal
}

// usable reports whether the machine is currently a fleet member the
// model may touch (joined and not retired). Always true outside
// lifecycle scenarios.
func (mc *machCtl) usable() bool { return mc.joined && !mc.retired }

// retire removes a machine from the fleet mid-trace: any in-flight
// boot is cancelled, the session (if any) is closed by the power-off,
// and the machine never responds, is claimed, or is swept again.
func (md *Model) retire(eng *sim.Engine, mc *machCtl) {
	md.cancelSessionEvents(eng, mc)
	eng.Cancel(mc.bootEv)
	mc.bootEv = nil
	mc.pending = false
	mc.kind = kindNone
	if mc.m.Powered() {
		mc.m.PowerOff(eng.Now())
	}
	mc.retired = true
}

// localMonday returns midnight of the Monday of t's week, in loc's
// wall clock.
func localMonday(t time.Time, loc *time.Location) time.Time {
	lt := t.In(loc)
	lm := time.Date(lt.Year(), lt.Month(), lt.Day(), 0, 0, 0, 0, loc)
	return lm.AddDate(0, 0, -((int(lm.Weekday()) + 6) % 7))
}

// installScenario is Install's scenario-mode body: the same processes
// as the default path, generalised to per-lab wall clocks, lifecycle
// windows and always-on pools. It is a separate function (rather than
// ifs inside Install) so the default path keeps its exact event
// insertion order — simultaneous events break FIFO ties by insertion.
func (md *Model) installScenario(eng *sim.Engine, start, end time.Time) {
	eng.Every(start, 15*time.Minute, end, "arrivals", md.arrivalTick)
	eng.Every(start, time.Hour, end, "phantom", md.phantomTick)

	// Fleet lifecycle: late joiners start outside the fleet; leavers
	// are retired at their leave instant. A leave at or before start
	// means the machine is never a member at all.
	for _, mc := range md.ctl {
		lc, ok := md.life[mc.m.ID]
		if !ok {
			continue
		}
		if lc.Join.After(start) {
			mc.joined = false
			if lc.Join.Before(end) {
				mcc := mc
				eng.At(lc.Join, "fleet-join", func(e *sim.Engine) {
					mcc.joined = true
					if md.alwaysOn[mcc.m.Lab] && !mcc.m.Powered() {
						md.powerOn(e, mcc)
					}
				})
			}
		}
		if !lc.Leave.IsZero() {
			switch {
			case !lc.Leave.After(start):
				mc.joined = false
				mc.retired = true
			case lc.Leave.Before(end):
				mcc := mc
				eng.At(lc.Leave, "fleet-leave", func(e *sim.Engine) { md.retire(e, mcc) })
			}
		}
	}

	// Always-on server pools boot once at the start (joiners boot at
	// their join instant, handled above).
	for _, mc := range md.ctl {
		if md.alwaysOn[mc.m.Lab] && mc.usable() {
			mcc := mc
			eng.At(start, "serverpool-on", func(e *sim.Engine) {
				if !mcc.m.Powered() {
					md.powerOn(e, mcc)
				}
			})
		}
	}

	// Class occurrences, per lab in the lab's wall clock: "Tuesday
	// 10 am" is Tuesday 10 am local, on both sides of a DST shift.
	for _, c := range md.tt.Classes {
		if md.alwaysOn[c.Lab] {
			continue
		}
		loc := md.calFor(c.Lab).loc()
		anchor := localMonday(start, loc)
		day := int(c.Day-time.Monday+7) % 7
		cls := c
		for wk := anchor; wk.Before(end); wk = wk.AddDate(0, 0, 7) {
			d := wk.AddDate(0, 0, day)
			at := time.Date(d.Year(), d.Month(), d.Day(), cls.StartHour, 0, 0, 0, loc)
			if at.Before(start) || !at.Before(end) {
				continue
			}
			eng.At(at, "class-start", func(e *sim.Engine) { md.classStart(e, cls) })
		}
	}

	// Closing sweeps per lab, found by scanning the lab calendar's
	// open→closed transitions on wall-clock hour boundaries (DST-safe;
	// an AlwaysOpen calendar has none, so it never schedules a sweep).
	for _, s := range md.fleet.Specs {
		cal := md.calFor(s.Name)
		if cal.AlwaysOpen || md.alwaysOn[s.Name] {
			continue // always-on pools are never swept, whatever their calendar
		}
		lb := s.Name
		loc := cal.loc()
		prev := wallHour(start.In(loc))
		for u := nextWallHour(prev); u.Before(end); prev, u = u, nextWallHour(u) {
			if cal.IsOpen(prev) && !cal.IsOpen(u) && !u.Before(start) {
				at := u
				eng.At(at, "closing-sweep", func(e *sim.Engine) { md.closingSweepLab(e, lb) })
			}
		}
	}
}

// arrivalTickLabs is arrivalTick's per-lab-calendar variant: each open
// lab contributes its machine-count share of the fleet arrival rate,
// shaped by the lab's *local* hour, so a Tokyo campus fills during
// Tokyo daytime.
func (md *Model) arrivalTickLabs(eng *sim.Engine, t time.Time) {
	total := len(md.ctl)
	if total == 0 {
		return
	}
	for _, s := range md.fleet.Specs {
		if md.alwaysOn[s.Name] {
			continue
		}
		cal := md.calFor(s.Name)
		if !cal.IsOpen(t) {
			continue
		}
		lt := t.In(cal.loc())
		rate := md.cfg.ArrivalPeakPerHour * md.cfg.HourShape[lt.Hour()]
		if lt.Weekday() == time.Saturday {
			rate *= md.cfg.SaturdayFactor
		}
		rate *= float64(len(md.byLab[s.Name])) / float64(total)
		rate *= md.arrivalFactor(t)
		n := md.arrivals.Poisson(rate / 4)
		lb := s.Name
		for i := 0; i < n; i++ {
			at := t.Add(time.Duration(md.arrivals.Uniform(0, float64(15*time.Minute))))
			eng.At(at, "student-arrival", func(e *sim.Engine) { md.studentArrivalIn(e, lb) })
		}
	}
}

// studentArrivalIn starts a free session on a machine of one lab (the
// per-lab arrival path; the student leaves if the lab is full).
func (md *Model) studentArrivalIn(eng *sim.Engine, lb string) {
	mc := md.pickMachineIn(lb)
	if mc == nil {
		return
	}
	quick := md.arrivals.Bool(md.cfg.QuickSessionProb)
	dur := md.drawSessionDuration(quick)
	user := md.nextUser("stu")
	prof := md.drawProfile(mc.spec, false)
	md.claim(eng, mc, func(e *sim.Engine) {
		md.beginSession(e, mc, user, kindFree, prof, dur, quick)
	})
}

// pickMachineIn is pickMachine's within-lab pooling (powered-idle
// first, then off, then forgotten).
func (md *Model) pickMachineIn(lb string) *machCtl {
	var poweredIdle, off, forgotten []*machCtl
	for _, mc := range md.byLab[lb] {
		if !mc.claimable() {
			continue
		}
		switch {
		case mc.kind == kindForgotten:
			forgotten = append(forgotten, mc)
		case mc.m.Powered():
			poweredIdle = append(poweredIdle, mc)
		default:
			off = append(off, mc)
		}
	}
	for _, pool := range [][]*machCtl{poweredIdle, off, forgotten} {
		if len(pool) > 0 {
			return pool[md.arrivals.Intn(len(pool))]
		}
	}
	return nil
}
