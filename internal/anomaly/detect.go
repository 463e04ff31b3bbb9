package anomaly

import (
	"fmt"
	"math"
	"strings"
	"time"

	"winlab/internal/stats"
	"winlab/internal/telemetry"
	"winlab/internal/trace"
)

// Telemetry metric names published by the detectors. Per-kind event
// counters are derived from the Kind string (MetricEventsFor): the
// registry has no labels, so each detector gets its own counter.
const (
	// MetricSamples counts samples fed through the detector tap.
	MetricSamples = "anomaly_samples_total"
	// MetricIterations counts iteration boundaries fed through the tap.
	MetricIterations = "anomaly_iterations_total"
	// MetricEvents counts all emitted events, every kind.
	MetricEvents = "anomaly_events_total"
	// MetricActive gauges currently-open anomaly conditions (entered on
	// event emission, left when the detector sees the condition clear).
	MetricActive = "anomaly_active_conditions"
)

// MetricEventsFor returns the per-kind event counter name, e.g.
// "anomaly_events_reboot_storm_total" for KindRebootStorm.
func MetricEventsFor(k Kind) string {
	return "anomaly_events_" + strings.ReplaceAll(string(k), "-", "_") + "_total"
}

// Config tunes the detectors. The zero value is unusable; start from
// DefaultConfig. Thresholds are calibrated against the behavior model's
// natural variation (classroom reboots, nightly shutdowns, session
// churn) so the labeled-scenario harness meets its precision floor
// without suppressing injected anomalies.
type Config struct {
	// RingCapacity bounds the in-memory event ring (DefaultRingCapacity
	// when 0).
	RingCapacity int

	// Availability collapse (per-lab). The detector watches for a *fast
	// drop* of the reachable fraction against the lab's own recent level
	// (a short-horizon EWMA): day-to-day occupancy varies far too much
	// for an absolute availability floor, but a lab that was 90% up an
	// hour ago and is near-zero now has collapsed. A seasonal baseline —
	// an EWMA per (day-class, quarter-hour) bin, weekday/Saturday/Sunday
	// × 96 — gates the alert: slots where the lab is routinely down (the
	// 4 am closing sweep, Sundays) never alert no matter how sharp the
	// drop, because the drop is the schedule, not an anomaly. With one
	// observation per bin per matching day, CollapseWarmupObs counts
	// days of that day-class.
	CollapseRecentAlpha float64 // EWMA weight of the newest iteration in the recent level
	CollapseRecentMin   float64 // recent level must be ≥ this for a drop to count
	CollapseAlpha       float64 // seasonal-bin EWMA weight
	CollapseWarmupObs   int     // min observations in a bin before alerting
	CollapseMinBaseline float64 // bins with seasonal value below this never alert (scheduled-off hours)
	CollapseFrac        float64 // alert when frac < CollapseFrac × recent and < CollapseFrac × seasonal norm…
	CollapseMinDeficit  float64 // …and recent − frac ≥ this (guards small-lab noise)
	CollapseConfirm     int     // consecutive low iterations before emitting
	CollapseRecoverFrac float64 // condition clears when frac ≥ this × recent
	// CollapseMaxFreezeIters bounds how long the recent level and the
	// seasonal baseline stay frozen while a drop is low/active. A fast
	// outage recovers well within the bound, so the pre-drop reference
	// is preserved exactly as before; a shift that *stays* low past the
	// bound is a regime change (a lockdown semester, a policy change),
	// and the baselines resume adapting so the condition clears through
	// the recovery check instead of paging forever against a stale
	// reference. Zero selects the default; negative means unbounded
	// (the pre-fix freeze-forever behaviour).
	CollapseMaxFreezeIters int
	// Blackout escape hatch: a quiet lab (recent below CollapseRecentMin)
	// going to *zero* reachable machines is still a collapse, provided the
	// recent level implies at least this many machines were just up. The
	// seasonal gate applies to this path too, so the closing sweep cannot
	// trigger it.
	CollapseBlackoutMachines float64

	// Reboot storm (per-machine window rate + per-lab storming count).
	StormWindowIters     int     // sliding window length, in iterations
	StormMaxGapIters     int     // a boot change counts as a reboot only if the sample gap is ≤ this (a morning power-on after a long off-gap is not a reboot)
	StormMachineReboots  int     // machine event at ≥ this many window reboots
	StormLabMinMachines  int     // lab event at ≥ max(this, StormLabFrac×size) machines…
	StormLabFrac         float64 // …each with ≥ StormMachineReboots−1 window reboots
	StormMachineRecovery int     // window reboots must fall to ≤ this to clear

	// SMART counter anomalies (attributes 12 power cycles / 9 power-on
	// hours — the two the probe carries).
	SMARTCycleJump    int64 // cycles delta > this + 2×gap ⇒ jump
	SMARTHoursSlack   int64 // hours delta > elapsed hours + this ⇒ excursion
	SMARTCooldownIter int   // iterations to mute a machine after an event

	// Usage drift (per-machine running mean and spread of memory load and
	// used disk). CPU is deliberately excluded: the behavior model's course
	// schedule makes multi-hour CPU regimes (lab-wide batch sessions) a
	// natural pattern, not an anomaly.
	DriftWarmupSamples int     // baseline observations before alerting
	DriftZ             float64 // z-score threshold
	DriftConfirm       int     // consecutive out-of-regime samples before emitting
	DriftMemFloorPct   float64 // memory sd floor, percent points
	DriftDiskFloorGB   float64 // used-disk sd floor, GB
	DriftRecoverZ      float64 // condition clears when z < this

	// Sensor staleness: machine answers probes but Uptime and CPUIdle
	// are bit-frozen across samples of the same boot.
	StaleConfirm int // consecutive frozen samples before emitting
	StaleMaxGap  int // only consecutive-ish samples count (iteration gap ≤ this)
}

// DefaultConfig returns thresholds tuned for the paper-scale fleet and
// its behavior model (15-minute iterations, classroom power habits).
func DefaultConfig() Config {
	return Config{
		CollapseRecentAlpha:      0.5,
		CollapseRecentMin:        0.35,
		CollapseAlpha:            0.3,
		CollapseWarmupObs:        3,
		CollapseMinBaseline:      0.3,
		CollapseFrac:             0.35,
		CollapseMinDeficit:       0.3,
		CollapseConfirm:          2,
		CollapseRecoverFrac:      0.7,
		CollapseBlackoutMachines: 3,
		CollapseMaxFreezeIters:   192, // two days of 15-minute iterations

		StormWindowIters:     8, // two hours
		StormMaxGapIters:     2,
		StormMachineReboots:  3,
		StormLabMinMachines:  3,
		StormLabFrac:         0.3,
		StormMachineRecovery: 0,

		SMARTCycleJump:    10,
		SMARTHoursSlack:   6, // must exceed the longest plausible counter catch-up (a stuck agent recovering)
		SMARTCooldownIter: 16,

		DriftWarmupSamples: 128, // ≈ 3 open-hours days at 15-minute sampling
		DriftZ:             10,  // natural heavy memory users reach z ≈ 9; injected regime shifts score ≥ 19
		DriftConfirm:       4,
		DriftMemFloorPct:   4,
		DriftDiskFloorGB:   0.25,
		DriftRecoverZ:      3,

		StaleConfirm: 3,
		StaleMaxGap:  2,
	}
}

// stormRingSize bounds the per-machine reboot-iteration memory; it only
// needs to cover StormWindowIters (8 by default) worth of reboots, one
// per iteration at most.
const stormRingSize = 16

// machState is the constant-size per-machine detector state.
type machState struct {
	lab *labState
	id  string

	// last committed sample, destructured (keeping a *trace.Sample would
	// pin the sink's slice backing array across regrowth).
	hasLast     bool
	lastIter    int
	lastTime    time.Time
	lastBoot    time.Time
	lastUptime  time.Duration
	lastCPUIdle time.Duration
	lastCycles  int64
	lastHours   int64

	// reboot-storm window: iteration numbers of recent reboots.
	rebootIters [stormRingSize]int32
	rebootNext  int
	rebootN     int // total recorded (≤ stormRingSize live)
	stormActive bool
	stormFirst  int

	smartQuietUntil int // iteration before which SMART checks are muted

	// usage drift baselines and confirmation run.
	memBase     stats.Running
	diskBase    stats.Running
	driftRun    int
	driftFirst  int
	driftActive bool

	// staleness confirmation run.
	frozenRun   int
	staleFirst  int
	staleActive bool
}

// labState is the constant-size per-lab detector state.
type labState struct {
	name    string
	members []*machState

	responded int // samples seen since the last Iteration call

	// recent availability level: short-horizon EWMA of the reachable
	// fraction, frozen while a drop is in progress.
	recent     float64
	recentInit bool

	// seasonal availability baseline: EWMA of reachable fraction per
	// (day-class, quarter-hour) bin. 3 classes × 96 quarter-hours. Used
	// only as a gate — scheduled-off slots (closing sweep, Sundays) have
	// low bin values and never alert. Quarter-hour granularity matters:
	// an hour-wide bin straddling the nightly closing sweep averages the
	// pre-sweep (high) and post-sweep (low) fractions into a value that
	// passes the gate, and the sweep then alerts every night.
	baseline [288]struct {
		value float64
		obs   int
	}
	lowRun         int
	freezeRun      int // iterations the baselines have been frozen for
	collapseFirst  int
	collapseActive bool

	labStormActive bool
	labStormFirst  int
}

func seasonBin(t time.Time) int {
	class := 0
	switch t.Weekday() {
	case time.Saturday:
		class = 1
	case time.Sunday:
		class = 2
	}
	return class*96 + t.Hour()*4 + t.Minute()/15
}

// Detectors runs every streaming detector over the live sample stream.
// Sample and Iteration are designed to be called from a DatasetSink tap,
// i.e. under the sink's lock in commit order, so they take no internal
// lock of their own (the Ring has one for its readers). All methods are
// nil-safe so a disabled detector wires through untouched.
type Detectors struct {
	cfg  Config
	ring *Ring

	machines map[string]*machState
	labs     map[string]*labState

	// resolved telemetry handles (nil-safe no-ops without a registry).
	samples    *telemetry.Counter
	iterations *telemetry.Counter
	events     *telemetry.Counter
	active     *telemetry.Gauge
	perKind    map[Kind]*telemetry.Counter
}

// New builds detectors with cfg (zero-value fields fall back to
// DefaultConfig) publishing counters into reg (nil for none). Call
// SetMachines before feeding samples so lab sizes are known.
func New(cfg Config, reg *telemetry.Registry) *Detectors {
	def := DefaultConfig()
	if cfg.CollapseAlpha == 0 {
		cfg = def
	}
	if cfg.CollapseMaxFreezeIters == 0 {
		cfg.CollapseMaxFreezeIters = def.CollapseMaxFreezeIters
	}
	d := &Detectors{
		cfg:      cfg,
		ring:     NewRing(cfg.RingCapacity),
		machines: make(map[string]*machState),
		labs:     make(map[string]*labState),
		perKind:  make(map[Kind]*telemetry.Counter, 5),
	}
	d.samples = reg.Counter(MetricSamples)
	d.iterations = reg.Counter(MetricIterations)
	d.events = reg.Counter(MetricEvents)
	d.active = reg.Gauge(MetricActive)
	for _, k := range Kinds() {
		d.perKind[k] = reg.Counter(MetricEventsFor(k))
	}
	return d
}

// SetMachines registers the fleet: per-machine state and per-lab
// membership (lab sizes are the denominator of the reachable fraction).
// Samples from machines never registered are tracked but excluded from
// lab availability (their lab size is unknown).
func (d *Detectors) SetMachines(infos []trace.MachineInfo) {
	if d == nil {
		return
	}
	for _, info := range infos {
		if _, ok := d.machines[info.ID]; ok {
			continue
		}
		lab := d.labs[info.Lab]
		if lab == nil {
			lab = &labState{name: info.Lab}
			d.labs[info.Lab] = lab
		}
		m := &machState{lab: lab, id: info.ID}
		lab.members = append(lab.members, m)
		d.machines[info.ID] = m
	}
}

// Ring returns the event ring (for /events, JSONL wiring and tests).
func (d *Detectors) Ring() *Ring {
	if d == nil {
		return nil
	}
	return d.ring
}

func (d *Detectors) emit(e Event) {
	d.ring.Add(e)
	d.events.Inc()
	d.perKind[e.Kind].Inc()
	d.active.Add(1)
}

func (d *Detectors) clearActive() {
	d.active.Add(-1)
}

// Sample feeds one committed sample. Pointer contents are read during
// the call only — nothing retains s.
func (d *Detectors) Sample(s *trace.Sample) {
	if d == nil || s == nil {
		return
	}
	d.samples.Inc()
	m := d.machines[s.Machine]
	if m == nil {
		// Unregistered machine: create standalone state with no lab.
		m = &machState{id: s.Machine}
		d.machines[s.Machine] = m
	}
	if m.lab != nil {
		m.lab.responded++
	}
	if m.hasLast {
		gap := s.Iter - m.lastIter
		sameBoot := absDuration(s.BootTime.Sub(m.lastBoot)) <= time.Second
		if !sameBoot && gap <= d.cfg.StormMaxGapIters {
			d.recordReboot(m, s)
		}
		d.checkStorm(m, s)
		d.checkSMART(m, s, gap)
		d.checkStale(m, s, gap, sameBoot)
	}
	d.checkDrift(m, s)
	m.hasLast = true
	m.lastIter = s.Iter
	m.lastTime = s.Time
	m.lastBoot = s.BootTime
	m.lastUptime = s.Uptime
	m.lastCPUIdle = s.CPUIdle
	m.lastCycles = s.PowerCycles
	m.lastHours = s.PowerOnHours
}

// Iteration feeds one iteration boundary: lab-level detectors (collapse,
// lab storm) evaluate against the responses counted since the previous
// boundary. The sink calls taps after booking the iteration's samples,
// so the counts line up.
func (d *Detectors) Iteration(it trace.Iteration) {
	if d == nil {
		return
	}
	d.iterations.Inc()
	bin := seasonBin(it.Start)
	for _, lab := range d.labs {
		if len(lab.members) == 0 {
			continue
		}
		frac := float64(lab.responded) / float64(len(lab.members))
		lab.responded = 0
		d.checkCollapse(lab, it, bin, frac)
		d.checkLabStorm(lab, it)
	}
}

func absDuration(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// --- availability collapse ---

func (d *Detectors) checkCollapse(lab *labState, it trace.Iteration, bin int, frac float64) {
	b := &lab.baseline[bin]
	// The seasonal gate: this hour of this day-class is normally up.
	gate := b.obs >= d.cfg.CollapseWarmupObs && b.value >= d.cfg.CollapseMinBaseline
	ref := lab.recent
	// A drop must land far below the recent level AND the seasonal norm
	// for this slot. The second clause is what keeps the nightly closing
	// sweep quiet on high-occupancy evenings: the 4:15 am bin's norm is
	// itself the post-sweep level, so the scheduled drop never undercuts
	// it, while a genuine collapse toward zero undercuts both.
	drop := ref >= d.cfg.CollapseRecentMin &&
		frac < d.cfg.CollapseFrac*ref &&
		frac < d.cfg.CollapseFrac*b.value &&
		ref-frac >= d.cfg.CollapseMinDeficit
	blackout := frac == 0 && ref*float64(len(lab.members)) >= d.cfg.CollapseBlackoutMachines
	low := lab.recentInit && gate && (drop || blackout)
	if low {
		if lab.lowRun == 0 {
			lab.collapseFirst = it.Iter
		}
		lab.lowRun++
		if lab.lowRun >= d.cfg.CollapseConfirm && !lab.collapseActive {
			lab.collapseActive = true
			sev := SeverityWarning
			if frac < d.cfg.CollapseFrac*ref/2 {
				sev = SeverityCritical
			}
			d.emit(Event{
				Time:      it.Start,
				Kind:      KindAvailabilityCollapse,
				Severity:  sev,
				Lab:       lab.name,
				FirstIter: lab.collapseFirst,
				LastIter:  it.Iter,
				Score:     clampScore(1 - frac/ref),
				Detail:    fmt.Sprintf("reachable %.2f vs recent %.2f", frac, ref),
			})
		}
	} else {
		lab.lowRun = 0
		if lab.collapseActive && frac >= d.cfg.CollapseRecoverFrac*ref {
			lab.collapseActive = false
			d.clearActive()
		}
	}
	// Feed the recent level and the seasonal baseline, but not with
	// collapse-depressed fractions: an unhandled outage must not become
	// the new normal (the recent level stays frozen at its pre-drop
	// value, which is also what recovery is measured against). The
	// freeze is bounded: a condition still low after
	// CollapseMaxFreezeIters is a regime shift, not an outage, so the
	// baselines resume adapting and the condition clears through the
	// recovery check once the recent level has caught up. Fast drops
	// recover far inside the bound and keep the exact frozen-reference
	// behaviour.
	if low || lab.collapseActive {
		lab.freezeRun++
		if d.cfg.CollapseMaxFreezeIters < 0 || lab.freezeRun <= d.cfg.CollapseMaxFreezeIters {
			return
		}
	} else {
		lab.freezeRun = 0
	}
	if !lab.recentInit {
		lab.recent = frac
		lab.recentInit = true
	} else {
		lab.recent = d.cfg.CollapseRecentAlpha*frac + (1-d.cfg.CollapseRecentAlpha)*lab.recent
	}
	if b.obs == 0 {
		b.value = frac
	} else {
		b.value = d.cfg.CollapseAlpha*frac + (1-d.cfg.CollapseAlpha)*b.value
	}
	b.obs++
}

// --- reboot storm ---

func (d *Detectors) recordReboot(m *machState, s *trace.Sample) {
	m.rebootIters[m.rebootNext] = int32(s.Iter)
	m.rebootNext = (m.rebootNext + 1) % stormRingSize
	m.rebootN++
}

// windowReboots counts recorded reboots newer than iter−window.
func (m *machState) windowReboots(iter, window int) int {
	n := m.rebootN
	if n > stormRingSize {
		n = stormRingSize
	}
	count := 0
	for i := 0; i < n; i++ {
		if int(m.rebootIters[i]) > iter-window {
			count++
		}
	}
	return count
}

func (d *Detectors) checkStorm(m *machState, s *trace.Sample) {
	w := m.windowReboots(s.Iter, d.cfg.StormWindowIters)
	if w >= d.cfg.StormMachineReboots {
		if !m.stormActive {
			m.stormActive = true
			m.stormFirst = s.Iter - d.cfg.StormWindowIters + 1
			if m.stormFirst < 0 {
				m.stormFirst = 0
			}
			sev := SeverityWarning
			if w >= 2*d.cfg.StormMachineReboots {
				sev = SeverityCritical
			}
			lab := ""
			if m.lab != nil {
				lab = m.lab.name
			}
			d.emit(Event{
				Time:      s.Time,
				Kind:      KindRebootStorm,
				Severity:  sev,
				Machine:   m.id,
				Lab:       lab,
				FirstIter: m.stormFirst,
				LastIter:  s.Iter,
				Score:     float64(w),
				Detail:    fmt.Sprintf("%d reboots in %d iterations", w, d.cfg.StormWindowIters),
			})
		}
	} else if m.stormActive && w <= d.cfg.StormMachineRecovery {
		m.stormActive = false
		d.clearActive()
	}
}

func (d *Detectors) checkLabStorm(lab *labState, it trace.Iteration) {
	threshold := d.cfg.StormLabMinMachines
	if f := int(math.Ceil(d.cfg.StormLabFrac * float64(len(lab.members)))); f > threshold {
		threshold = f
	}
	// A lab storms when several member machines are rebooting at nearly
	// machine-storm rates at once — counting storming machines rather
	// than raw lab-wide reboots keeps scattered classroom restarts
	// (which are many machines × one reboot) below the bar.
	need := d.cfg.StormMachineReboots - 1
	if need < 1 {
		need = 1
	}
	storming := 0
	for _, m := range lab.members {
		if m.windowReboots(it.Iter, d.cfg.StormWindowIters) >= need {
			storming++
		}
	}
	if storming >= threshold {
		if !lab.labStormActive {
			lab.labStormActive = true
			lab.labStormFirst = it.Iter - d.cfg.StormWindowIters + 1
			if lab.labStormFirst < 0 {
				lab.labStormFirst = 0
			}
			sev := SeverityWarning
			if storming >= 2*threshold {
				sev = SeverityCritical
			}
			d.emit(Event{
				Time:      it.Start,
				Kind:      KindRebootStorm,
				Severity:  sev,
				Lab:       lab.name,
				FirstIter: lab.labStormFirst,
				LastIter:  it.Iter,
				Score:     float64(storming),
				Detail:    fmt.Sprintf("%d/%d machines rebooting repeatedly", storming, len(lab.members)),
			})
		}
	} else if lab.labStormActive && storming == 0 {
		lab.labStormActive = false
		d.clearActive()
	}
}

// --- SMART counter anomalies ---

func (d *Detectors) checkSMART(m *machState, s *trace.Sample, gap int) {
	if s.Iter < m.smartQuietUntil {
		return
	}
	cycleDelta := s.PowerCycles - m.lastCycles
	hoursDelta := s.PowerOnHours - m.lastHours
	elapsedHours := int64(s.Time.Sub(m.lastTime) / time.Hour)

	var detail string
	var score float64
	switch {
	case cycleDelta < 0:
		detail = fmt.Sprintf("power-cycle count regressed by %d", -cycleDelta)
		score = float64(-cycleDelta)
	case cycleDelta > d.cfg.SMARTCycleJump+2*int64(gap):
		detail = fmt.Sprintf("power-cycle count jumped by %d over %d iterations", cycleDelta, gap)
		score = float64(cycleDelta)
	case hoursDelta < 0:
		detail = fmt.Sprintf("power-on hours regressed by %d", -hoursDelta)
		score = float64(-hoursDelta)
	case hoursDelta > elapsedHours+d.cfg.SMARTHoursSlack:
		detail = fmt.Sprintf("power-on hours advanced %d in %d wall hours", hoursDelta, elapsedHours)
		score = float64(hoursDelta - elapsedHours)
	default:
		return
	}
	m.smartQuietUntil = s.Iter + d.cfg.SMARTCooldownIter
	lab := ""
	if m.lab != nil {
		lab = m.lab.name
	}
	d.emit(Event{
		Time:      s.Time,
		Kind:      KindSMARTAnomaly,
		Severity:  SeverityWarning,
		Machine:   m.id,
		Lab:       lab,
		FirstIter: m.lastIter,
		LastIter:  s.Iter,
		Score:     clampScore(score),
		Detail:    detail,
	})
	// SMART events are point detections with a cooldown, not sustained
	// conditions: balance the active gauge immediately.
	d.clearActive()
}

// --- usage-regime drift ---

func (d *Detectors) checkDrift(m *machState, s *trace.Sample) {
	mem := float64(s.MemLoadPct)
	disk := s.UsedDiskGB()
	warm := m.memBase.N() >= int64(d.cfg.DriftWarmupSamples)
	z := 0.0
	if warm {
		zMem := math.Abs(mem-m.memBase.Mean()) / math.Max(m.memBase.StdDev(), d.cfg.DriftMemFloorPct)
		zDisk := math.Abs(disk-m.diskBase.Mean()) / math.Max(m.diskBase.StdDev(), d.cfg.DriftDiskFloorGB)
		z = math.Max(zMem, zDisk)
	}
	if warm && z >= d.cfg.DriftZ {
		if m.driftRun == 0 {
			m.driftFirst = s.Iter
		}
		m.driftRun++
		if m.driftRun >= d.cfg.DriftConfirm && !m.driftActive {
			m.driftActive = true
			sev := SeverityWarning
			if z >= 2*d.cfg.DriftZ {
				sev = SeverityCritical
			}
			lab := ""
			if m.lab != nil {
				lab = m.lab.name
			}
			d.emit(Event{
				Time:      s.Time,
				Kind:      KindUsageDrift,
				Severity:  sev,
				Machine:   m.id,
				Lab:       lab,
				FirstIter: m.driftFirst,
				LastIter:  s.Iter,
				Score:     clampScore(z),
				Detail: fmt.Sprintf("mem %.0f%% (baseline %.0f%%), used disk %.1fGB (baseline %.1fGB)",
					mem, m.memBase.Mean(), disk, m.diskBase.Mean()),
			})
		}
		// Out-of-regime samples do not feed the baseline: a sustained
		// anomaly must not normalise itself.
		return
	}
	m.driftRun = 0
	if m.driftActive && (!warm || z < d.cfg.DriftRecoverZ) {
		m.driftActive = false
		d.clearActive()
	}
	m.memBase.Add(mem)
	m.diskBase.Add(disk)
}

// --- sensor staleness ---

func (d *Detectors) checkStale(m *machState, s *trace.Sample, gap int, sameBoot bool) {
	// Uptime and cumulative CPU idle both advance on any live machine
	// (idle time can stall only under 100% sustained load; uptime never
	// stalls). Both frozen across a sampling gap means the agent is
	// replaying a stale report.
	frozen := sameBoot && gap <= d.cfg.StaleMaxGap &&
		s.Uptime == m.lastUptime && s.CPUIdle == m.lastCPUIdle
	if frozen {
		if m.frozenRun == 0 {
			m.staleFirst = s.Iter
		}
		m.frozenRun++
		if m.frozenRun >= d.cfg.StaleConfirm && !m.staleActive {
			m.staleActive = true
			lab := ""
			if m.lab != nil {
				lab = m.lab.name
			}
			d.emit(Event{
				Time:      s.Time,
				Kind:      KindSensorStaleness,
				Severity:  SeverityWarning,
				Machine:   m.id,
				Lab:       lab,
				FirstIter: m.staleFirst,
				LastIter:  s.Iter,
				Score:     float64(m.frozenRun),
				Detail:    fmt.Sprintf("uptime and CPU idle frozen for %d consecutive samples", m.frozenRun),
			})
		}
		return
	}
	m.frozenRun = 0
	if m.staleActive {
		m.staleActive = false
		d.clearActive()
	}
}

func clampScore(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	if math.IsInf(v, 1) || v > 1e12 {
		return 1e12
	}
	if math.IsInf(v, -1) || v < -1e12 {
		return -1e12
	}
	return v
}
