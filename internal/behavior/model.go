// Package behavior implements the workload model that animates the
// simulated fleet: class timetables, student arrivals, interactive resource
// usage, forgotten logouts, power management and crashes.
//
// The model is intentionally behavioural, not statistical: nothing in it
// replays the paper's aggregates. Students arrive, log in, consume
// resources, forget to log out, and machines get powered on and off; the
// paper's Table 2 and Figures 2–6 then *emerge* from the collected trace.
package behavior

import (
	"fmt"
	"time"

	"winlab/internal/lab"
	"winlab/internal/machine"
	"winlab/internal/rng"
	"winlab/internal/sim"
)

// sessKind classifies what is currently happening on a machine.
type sessKind int

const (
	kindNone      sessKind = iota // powered or off, no interactive session
	kindFree                      // free (non-class) interactive session
	kindClass                     // session belonging to a class occurrence
	kindForgotten                 // session left open by a departed user
)

// profile is the per-session resource consumption profile drawn at login.
type profile struct {
	appMemMB  float64
	appSwapMB float64
	cpuBase   float64 // mean busy fraction; redraws fluctuate around it
	recvBase  float64 // mean receive bps
	sentFrac  float64
	hog       bool // CPU-intensive class workload on top
}

// machCtl is the behaviour-model state attached to one machine.
type machCtl struct {
	m        *machine.Machine
	spec     lab.Spec
	diskBase float64 // stable per-machine installed-image size
	offBias  float64 // stable multiplier on all shutdown probabilities

	kind     sessKind
	classTag int64 // occurrence ID of the owning class, when kind==kindClass
	pending  bool  // a boot/reboot claim is in flight
	prof     profile
	tempGB   float64

	// Lifecycle state (scenario fleets; see scenario.go). joined is
	// true for the machine's whole life outside lifecycle scenarios.
	joined  bool
	retired bool

	endEv    *sim.Event
	redrawEv *sim.Event
	crashEv  *sim.Event
	bootEv   *sim.Event // in-flight boot/reboot/phantom event, for retire
}

// Model animates a fleet on a simulation engine.
type Model struct {
	cfg   Config
	cal   Calendar
	tt    Timetable
	fleet *lab.Fleet
	ctl   []*machCtl
	byLab map[string][]*machCtl

	// Scenario hooks (see scenario.go); all nil/empty by default, in
	// which case every event path is the exact pre-scenario code.
	overlay  Overlay
	labCals  map[string]Calendar
	alwaysOn map[string]bool
	life     map[string]Lifecycle

	// Independent random streams per concern (see package rng).
	arrivals *rng.Source
	classes  *rng.Source
	power    *rng.Source
	res      *rng.Source

	start, end time.Time
	userSeq    int
	classSeq   int64

	// Counters for calibration diagnostics.
	Boots         int64
	Logins        int64
	Forgets       int64
	Crashes       int64
	PhantomCycles int64
}

// NewModel builds the behaviour model for a fleet. The timetable is drawn
// from the configuration's seed.
func NewModel(cfg Config, fleet *lab.Fleet) *Model {
	cal := Calendar{OpenHour: cfg.OpenHour, NightClose: cfg.NightClose, SatCloseHour: cfg.SatCloseHour}
	labNames := make([]string, 0, len(fleet.Specs))
	for _, s := range fleet.Specs {
		labNames = append(labNames, s.Name)
	}
	tt := GenerateTimetable(cfg, labNames, rng.Derive(cfg.Seed, "timetable"))

	m := &Model{
		cfg:      cfg,
		cal:      cal,
		tt:       tt,
		fleet:    fleet,
		byLab:    make(map[string][]*machCtl),
		arrivals: rng.Derive(cfg.Seed, "arrivals"),
		classes:  rng.Derive(cfg.Seed, "classes"),
		power:    rng.Derive(cfg.Seed, "power"),
		res:      rng.Derive(cfg.Seed, "resources"),
	}
	jit := rng.Derive(cfg.Seed, "diskjitter")
	bias := rng.Derive(cfg.Seed, "offbias")
	for _, mm := range fleet.Machines {
		off := bias.Uniform(cfg.CyclerBiasLo, cfg.CyclerBiasHi)
		if bias.Bool(cfg.LeaveOnFraction) {
			off = bias.Uniform(cfg.LeaveOnBiasLo, cfg.LeaveOnBiasHi)
		}
		mc := &machCtl{
			m:        mm,
			spec:     fleet.SpecOf(mm),
			diskBase: fleet.SpecOf(mm).BaseImgGB + jit.Uniform(-cfg.DiskJitterGB, cfg.DiskJitterGB),
			offBias:  off,
			joined:   true,
		}
		m.ctl = append(m.ctl, mc)
		m.byLab[mm.Lab] = append(m.byLab[mm.Lab], mc)
	}
	return m
}

// Calendar exposes the opening-hours calendar.
func (md *Model) Calendar() Calendar { return md.cal }

// Install schedules the whole experiment's behaviour on the engine, from
// start (inclusive) to end (exclusive). start should be a Monday 00:00 so
// that weekly figures align, but any start works.
func (md *Model) Install(eng *sim.Engine, start, end time.Time) {
	md.start, md.end = start, end

	// Scenario hooks configured? Scheduling generalises to per-lab wall
	// clocks and lifecycle windows (scenario.go). The default path below
	// stays byte-for-byte identical for unconfigured models.
	if md.scenarioActive() {
		md.installScenario(eng, start, end)
		return
	}

	// Student arrival process: one tick per 15 minutes.
	eng.Every(start, 15*time.Minute, end, "arrivals", md.arrivalTick)

	// Phantom power cycles (very short uses that escape sampling).
	eng.Every(start, time.Hour, end, "phantom", md.phantomTick)

	// Anchor the weekly schedule to the Monday midnight of the start's
	// week so classes land on their wall-clock hours regardless of when
	// within a week the experiment begins.
	midnight := time.Date(start.Year(), start.Month(), start.Day(), 0, 0, 0, 0, start.Location())
	monday := midnight.AddDate(0, 0, -((int(start.Weekday()) + 6) % 7))

	// Class occurrences, week by week.
	for wk := monday; wk.Before(end); wk = wk.AddDate(0, 0, 7) {
		for _, c := range md.tt.Classes {
			day := int(c.Day-time.Monday+7) % 7
			at := wk.AddDate(0, 0, day).Add(time.Duration(c.StartHour) * time.Hour)
			if at.Before(start) || !at.Before(end) {
				continue
			}
			cls := c
			eng.At(at, "class-start", func(e *sim.Engine) { md.classStart(e, cls) })
		}
	}

	// Closing sweeps: at every open→closed transition (weekday 4 am,
	// Saturday 9 pm), students leave and machines get shut down.
	for d := midnight; d.Before(end); d = d.AddDate(0, 0, 1) {
		var closes []time.Time
		switch d.Weekday() {
		case time.Tuesday, time.Wednesday, time.Thursday, time.Friday, time.Saturday:
			closes = append(closes, d.Add(time.Duration(md.cfg.NightClose)*time.Hour))
		}
		if d.Weekday() == time.Saturday {
			closes = append(closes, d.Add(time.Duration(md.cfg.SatCloseHour)*time.Hour))
		}
		for _, at := range closes {
			if at.Before(start) || !at.Before(end) {
				continue
			}
			eng.At(at, "closing-sweep", md.closingSweep)
		}
	}
}

// ---------------------------------------------------------------------------
// Power management.

func (md *Model) powerOn(eng *sim.Engine, mc *machCtl) {
	t := eng.Now()
	mc.m.PowerOn(t)
	md.Boots++
	cfg := md.cfg
	mean, sd := cfg.OSMemMBByRAM[mc.spec.RAMMB][0], cfg.OSMemMBByRAM[mc.spec.RAMMB][1]
	osMem := md.res.BoundedNormal(mean, sd, 60, 0.95*float64(mc.spec.RAMMB))
	osSwap := osMem * cfg.OSSwapFrac * md.res.Uniform(0.85, 1.15)
	mc.m.SetBaseline(osMem, osSwap, mc.diskBase+md.res.Uniform(-0.1, 0.1))
	mc.m.SetActivity(t, machine.Activity{
		Name:    machine.ActOSBackground,
		CPU:     md.res.Uniform(cfg.BackgroundCPULo, cfg.BackgroundCPUHi),
		SendBps: md.res.Uniform(cfg.BackgroundSentLo, cfg.BackgroundSentHi),
		RecvBps: md.res.Uniform(cfg.BackgroundRecvLo, cfg.BackgroundRecvHi),
	})
	mc.tempGB = 0
}

func (md *Model) powerOff(eng *sim.Engine, mc *machCtl) {
	md.cancelSessionEvents(eng, mc)
	mc.kind = kindNone
	mc.m.PowerOff(eng.Now())
}

func (md *Model) cancelSessionEvents(eng *sim.Engine, mc *machCtl) {
	eng.Cancel(mc.endEv)
	eng.Cancel(mc.redrawEv)
	eng.Cancel(mc.crashEv)
	mc.endEv, mc.redrawEv, mc.crashEv = nil, nil, nil
}

// claim takes possession of a machine for a new interactive session,
// booting or rebooting it as needed, then calls login when it is ready.
// The caller must have checked that the machine is claimable (not pending,
// not holding another active session).
func (md *Model) claim(eng *sim.Engine, mc *machCtl, login func(*sim.Engine)) {
	if mc.pending {
		panic("behavior: claim on pending machine " + mc.m.ID)
	}
	bootDelay := func() time.Duration {
		lo, hi := md.cfg.BootDelayLo, md.cfg.BootDelayHi
		return time.Duration(md.power.Uniform(float64(lo), float64(hi)))
	}
	switch {
	case mc.m.Powered() && mc.m.Session() == nil:
		login(eng)
	case mc.m.Powered(): // forgotten session: the newcomer reboots it
		md.cancelSessionEvents(eng, mc)
		mc.kind = kindNone
		mc.m.PowerOff(eng.Now())
		mc.pending = true
		mc.bootEv = eng.After(bootDelay(), "reboot", func(e *sim.Engine) {
			mc.bootEv = nil
			mc.pending = false
			md.powerOn(e, mc)
			login(e)
		})
	default: // powered off
		mc.pending = true
		mc.bootEv = eng.After(bootDelay(), "boot", func(e *sim.Engine) {
			mc.bootEv = nil
			mc.pending = false
			md.powerOn(e, mc)
			login(e)
		})
	}
}

// claimable reports whether a machine can be given to a new user right now:
// a current fleet member, not mid-boot and not hosting an *active* session
// (forgotten ones are rebooted away by claim).
func (mc *machCtl) claimable() bool {
	return mc.usable() && !mc.pending && mc.kind != kindFree && mc.kind != kindClass
}

func (md *Model) nextUser(prefix string) string {
	md.userSeq++
	return fmt.Sprintf("%s%05d", prefix, md.userSeq)
}
