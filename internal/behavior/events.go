package behavior

import (
	"math"
	"time"

	"winlab/internal/machine"
	"winlab/internal/sim"
)

// ---------------------------------------------------------------------------
// Free-use student arrivals.

// arrivalTick fires every 15 minutes and spawns Poisson-distributed student
// arrivals according to the hour-of-day shape.
func (md *Model) arrivalTick(eng *sim.Engine) {
	t := eng.Now()
	if md.labCals != nil {
		md.arrivalTickLabs(eng, t)
		return
	}
	if !md.cal.IsOpen(t) {
		return
	}
	rate := md.cfg.ArrivalPeakPerHour * md.cfg.HourShape[t.Hour()]
	if t.Weekday() == time.Saturday {
		rate *= md.cfg.SaturdayFactor
	}
	rate *= md.arrivalFactor(t)        // ×1 exactly unless an overlay is set
	n := md.arrivals.Poisson(rate / 4) // per 15-minute tick
	for i := 0; i < n; i++ {
		// Arrivals land uniformly inside the tick.
		at := t.Add(time.Duration(md.arrivals.Uniform(0, float64(15*time.Minute))))
		eng.At(at, "student-arrival", md.studentArrival)
	}
}

// studentArrival picks a machine for one arriving student and starts a free
// interactive session on it. Students prefer faster labs and machines that
// are already powered on; failing that they boot one; a machine holding a
// forgotten session gets rebooted.
func (md *Model) studentArrival(eng *sim.Engine) {
	mc := md.pickMachine()
	if mc == nil {
		return // institution full; the student leaves
	}
	quick := md.arrivals.Bool(md.cfg.QuickSessionProb)
	dur := md.drawSessionDuration(quick)
	user := md.nextUser("stu")
	prof := md.drawProfile(mc.spec, false)
	md.claim(eng, mc, func(e *sim.Engine) {
		md.beginSession(e, mc, user, kindFree, prof, dur, quick)
	})
}

// pickMachine chooses a claimable machine, weighting labs by their NBench
// performance index raised to LabPrefGamma — students visibly prefer the
// fast Pentium 4 rooms — and preferring already-powered machines within a
// lab. It returns nil when no machine is claimable.
func (md *Model) pickMachine() *machCtl {
	weights := make([]float64, len(md.fleet.Specs))
	anyFree := false
	for i, s := range md.fleet.Specs {
		if md.alwaysOn[s.Name] {
			continue // server pools host no interactive use (nil map by default)
		}
		if md.freeIn(s.Name) > 0 {
			weights[i] = math.Pow(s.PerfIndex(), md.cfg.LabPrefGamma)
			anyFree = true
		}
	}
	if !anyFree {
		return nil
	}
	spec := md.fleet.Specs[md.arrivals.Pick(weights)]
	ctls := md.byLab[spec.Name]

	var poweredIdle, off, forgotten []*machCtl
	for _, mc := range ctls {
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

// freeIn counts claimable machines in a lab.
func (md *Model) freeIn(labName string) int {
	n := 0
	for _, mc := range md.byLab[labName] {
		if mc.claimable() {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Phantom power cycles: very short on/off uses (a quick print job, a
// technician check) that frequently fit entirely between two 15-minute
// samples. They are the reason SMART counts ~30% more power cycles than the
// sampling methodology detects (§5.2.2).

func (md *Model) phantomTick(eng *sim.Engine) {
	t := eng.Now()
	if md.labCals != nil {
		// Per-lab calendars: phantoms happen wherever some classroom
		// is open (server pools are not classroom foot traffic).
		open := false
		for _, s := range md.fleet.Specs {
			if !md.alwaysOn[s.Name] && md.calFor(s.Name).IsOpen(t) {
				open = true
				break
			}
		}
		if !open {
			return
		}
	} else if !md.cal.IsOpen(t) {
		return
	}
	n := md.power.Poisson(md.cfg.PhantomPerOpenHour)
	for i := 0; i < n; i++ {
		at := t.Add(time.Duration(md.power.Uniform(0, float64(time.Hour))))
		eng.At(at, "phantom-cycle", md.phantomCycle)
	}
}

func (md *Model) phantomCycle(eng *sim.Engine) {
	// Pick any powered-off, claimable machine (in a currently open,
	// non-server lab when per-lab calendars are configured).
	t := eng.Now()
	var off []*machCtl
	for _, mc := range md.ctl {
		if !mc.claimable() || mc.m.Powered() {
			continue
		}
		if md.labCals != nil && (md.alwaysOn[mc.m.Lab] || !md.calFor(mc.m.Lab).IsOpen(t)) {
			continue
		}
		off = append(off, mc)
	}
	if len(off) == 0 {
		return
	}
	mc := off[md.power.Intn(len(off))]
	mc.pending = true
	boot := time.Duration(md.power.Uniform(float64(md.cfg.BootDelayLo), float64(md.cfg.BootDelayHi)))
	mc.bootEv = eng.After(boot, "phantom-boot", func(e *sim.Engine) {
		md.powerOn(e, mc)
		md.PhantomCycles++
		use := time.Duration(md.power.Uniform(float64(2*time.Minute), float64(9*time.Minute)))
		mc.bootEv = e.After(use, "phantom-off", func(e2 *sim.Engine) {
			mc.bootEv = nil
			mc.pending = false
			md.powerOff(e2, mc)
		})
	})
}

// ---------------------------------------------------------------------------
// Classes.

// classStart claims machines for one class occurrence and schedules its end.
func (md *Model) classStart(eng *sim.Engine, c Class) {
	if md.alwaysOn[c.Lab] {
		return // server pools host no classes
	}
	md.classSeq++
	tag := md.classSeq
	att := md.classes.Uniform(md.cfg.ClassAttendanceLo, md.cfg.ClassAttendanceHi)
	att = clampF(att*md.attendanceFactor(eng.Now()), 0, 1) // ×1 exactly without overlay
	ctls := md.byLab[c.Lab]
	order := make([]*machCtl, len(ctls))
	copy(order, ctls)
	md.classes.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	for _, mc := range order {
		if !md.classes.Bool(att) {
			continue
		}
		if mc.pending || !mc.usable() {
			continue
		}
		switch mc.kind {
		case kindFree:
			// A non-class user is sitting there; most give the seat up.
			if md.classes.Bool(0.7) {
				md.endSession(eng, mc, endOpts{offProb: 0, forgetAllowed: false})
			} else {
				continue // the student stays put; the machine is occupied anyway
			}
		case kindClass:
			// Back-to-back classes: the previous class's session ends now.
			md.endSession(eng, mc, endOpts{offProb: 0, forgetAllowed: false})
		}
		// Some students reboot "their" machine at the start of class.
		if mc.m.Powered() && mc.kind == kindNone && md.classes.Bool(md.cfg.ClassRebootProb) {
			md.powerOff(eng, mc)
		}
		user := md.nextUser("cls")
		prof := md.drawProfile(mc.spec, c.CPUHog)
		mcc := mc
		md.claim(eng, mcc, func(e *sim.Engine) {
			md.beginSession(e, mcc, user, kindClass, prof, 0, false)
			mcc.classTag = tag
		})
	}

	endAt := eng.Now().Add(c.Duration)
	if !endAt.Before(md.end) {
		endAt = md.end.Add(-time.Second)
	}
	if endAt.After(eng.Now()) {
		eng.At(endAt, "class-end", func(e *sim.Engine) { md.classEnd(e, c.Lab, tag) })
	}
}

// classEnd releases the machines of one class occurrence: sessions end with
// a small stagger; some students keep working, some machines get shut down.
func (md *Model) classEnd(eng *sim.Engine, labName string, tag int64) {
	for _, mc := range md.byLab[labName] {
		if mc.kind != kindClass || mc.classTag != tag {
			continue
		}
		mcc := mc
		stagger := time.Duration(md.classes.Uniform(0, float64(10*time.Minute)))
		eng.After(stagger, "class-leave", func(e *sim.Engine) {
			if mcc.kind != kindClass || mcc.classTag != tag {
				return // claimed by a back-to-back class meanwhile
			}
			if md.classes.Bool(md.cfg.ClassStayProb) {
				// The student keeps working: the class session continues as a
				// free session with a fresh duration.
				mcc.kind = kindFree
				mcc.prof.hog = false
				mcc.m.ClearActivity(e.Now(), machine.ActClass)
				dur := md.drawSessionDuration(false)
				mcc.endEv = e.After(dur, "session-end", func(e2 *sim.Engine) {
					mcc.endEv = nil
					md.endSession(e2, mcc, endOpts{
						offProb:       md.cfg.OffAfterUseProb,
						forgetAllowed: true,
					})
				})
				return
			}
			md.endSession(e, mcc, endOpts{
				offProb:       md.cfg.OffAfterClassProb,
				forgetAllowed: true,
			})
		})
	}
}

// ---------------------------------------------------------------------------
// Closing sweep.

// closingSweep fires at each open→closed transition: remaining users leave
// and machines are (mostly) shut down. Machines holding forgotten sessions
// have nobody at the keyboard and usually stay on — which is exactly what
// produces the paper's population of ≥10-hour login samples.
func (md *Model) closingSweep(eng *sim.Engine) {
	for _, mc := range md.ctl {
		md.sweepOne(eng, mc)
	}
}

// closingSweepLab sweeps one lab at its own closing time (per-lab
// calendar scenarios; see installScenario).
func (md *Model) closingSweepLab(eng *sim.Engine, lb string) {
	for _, mc := range md.byLab[lb] {
		md.sweepOne(eng, mc)
	}
}

func (md *Model) sweepOne(eng *sim.Engine, mc *machCtl) {
	if mc.pending || !mc.usable() {
		return
	}
	mcc := mc
	stagger := time.Duration(md.power.Uniform(0, float64(12*time.Minute)))
	eng.After(stagger, "close-leave", func(e *sim.Engine) {
		if mcc.pending || !mcc.usable() {
			return
		}
		pf := md.powerFactor(e.Now()) // ×1 exactly unless an overlay is set
		switch mcc.kind {
		case kindFree, kindClass:
			md.endSession(e, mcc, endOpts{
				offProb:       md.cfg.OffAtCloseActive,
				forgetAllowed: true,
			})
		case kindForgotten:
			if md.power.Bool(clampF(md.cfg.OffAtCloseForgotten*mcc.offBias*pf, 0, 1)) {
				md.powerOff(e, mcc)
			}
		default:
			if mcc.m.Powered() && md.power.Bool(clampF(md.cfg.OffAtCloseIdle*mcc.offBias*pf, 0, 1)) {
				md.powerOff(e, mcc)
			}
		}
	})
}
