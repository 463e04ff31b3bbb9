package experiment

import (
	"fmt"
	"time"

	"winlab/internal/behavior"
	"winlab/internal/lab"
	"winlab/internal/rng"
	"winlab/internal/trace"
)

// This file wires the scenario layer (internal/scenario) into a run:
// extra machines joining the catalogue fleet, behaviour-model hooks
// (regime overlays, per-lab calendars, always-on pools, lifecycle
// windows) and the lifetime bounds the trace catalogue carries for
// partial-lifetime machines. All fields default to empty, in which case
// runs are byte-identical to pre-scenario behaviour.

// buildFleet constructs the catalogue fleet and appends any scenario
// extras. Extras draw their disk-seeding randomness from a dedicated
// "scenario-fleet" stream so the catalogue machines' draws (and with
// them every default trace) are untouched.
func buildFleet(cfg Config) *lab.Fleet {
	fleet := lab.Build(cfg.Labs, cfg.Seed, cfg.DiskLife)
	if len(cfg.ExtraMachines) > 0 {
		src := rng.Derive(cfg.Seed, "scenario-fleet")
		for _, e := range cfg.ExtraMachines {
			fleet.Add(e, src)
		}
	}
	return fleet
}

// applyScenario installs the config's scenario hooks on the model.
// Must run before model.Install.
func applyScenario(model *behavior.Model, cfg Config) {
	if cfg.Overlay != nil {
		model.SetOverlay(cfg.Overlay)
	}
	if len(cfg.LabCalendars) > 0 {
		model.SetLabCalendars(cfg.LabCalendars)
	}
	if len(cfg.AlwaysOnLabs) > 0 {
		model.SetAlwaysOn(cfg.AlwaysOnLabs)
	}
	if len(cfg.Lifecycle) > 0 {
		model.SetLifecycle(cfg.Lifecycle)
	}
}

// machineInfos builds the trace catalogue for the fleet, stamping
// lifetime bounds (in iteration coordinates) onto machines with a
// lifecycle window.
func machineInfos(cfg Config, fleet *lab.Fleet) []trace.MachineInfo {
	life := make(map[string]behavior.Lifecycle, len(cfg.Lifecycle))
	for _, lc := range cfg.Lifecycle {
		life[lc.Machine] = lc
	}
	infos := make([]trace.MachineInfo, 0, fleet.Size())
	for _, m := range fleet.Machines {
		mi := trace.MachineInfo{
			ID: m.ID, Lab: m.Lab, RAMMB: m.HW.RAMMB, DiskGB: m.HW.DiskGB,
			IntIndex: m.HW.IntIndex, FPIndex: m.HW.FPIndex,
		}
		if lc, ok := life[m.ID]; ok {
			mi.JoinIter, mi.LeaveIter = lifetimeIters(cfg, lc)
		}
		infos = append(infos, mi)
	}
	return infos
}

// lifetimeIters converts a lifecycle window from simulation time to the
// [JoinIter, LeaveIter) iteration coordinates MachineInfo carries. The
// first member iteration is the first probe at or after Join; the last
// is the last probe strictly before Leave. A zero Join (or one at/
// before the start) and a zero Leave (or one at/after the end) mean the
// respective bound is absent.
func lifetimeIters(cfg Config, lc behavior.Lifecycle) (join, leave int) {
	if lc.Join.After(cfg.Start) {
		join = ceilIters(lc.Join.Sub(cfg.Start), cfg.Period)
	}
	if !lc.Leave.IsZero() && lc.Leave.Before(cfg.End()) {
		leave = ceilIters(lc.Leave.Sub(cfg.Start), cfg.Period)
		// LeaveIter 0 is the "until the end" sentinel and LeaveIter must
		// exceed JoinIter; a window that closes before it opens still
		// needs a representable (empty-membership) encoding.
		if leave <= join {
			leave = join + 1
		}
	}
	return join, leave
}

func ceilIters(d, period time.Duration) int {
	if d <= 0 {
		return 0
	}
	return int((d + period - 1) / period)
}

// validateScenario rejects scenario configurations the run could not
// honour coherently.
func validateScenario(cfg Config) error {
	labs := make(map[string]bool, len(cfg.Labs))
	for _, s := range cfg.Labs {
		labs[s.Name] = true
	}
	for _, e := range cfg.ExtraMachines {
		if e.Lab == "" || e.ID == "" {
			return &ConfigError{"ExtraMachines", fmt.Sprintf("extra machine needs both ID and Lab (got %q in %q)", e.ID, e.Lab)}
		}
	}
	for lb := range cfg.LabCalendars {
		if !labs[lb] && !extraLab(cfg, lb) {
			return &ConfigError{"LabCalendars", fmt.Sprintf("calendar for unknown lab %q", lb)}
		}
	}
	for _, lb := range cfg.AlwaysOnLabs {
		if !labs[lb] && !extraLab(cfg, lb) {
			return &ConfigError{"AlwaysOnLabs", fmt.Sprintf("always-on marker for unknown lab %q", lb)}
		}
	}
	for _, lc := range cfg.Lifecycle {
		if lc.Machine == "" {
			return &ConfigError{"Lifecycle", "entry without a machine ID"}
		}
		if !lc.Join.IsZero() && !lc.Leave.IsZero() && !lc.Leave.After(lc.Join) {
			return &ConfigError{"Lifecycle", fmt.Sprintf("machine %s leaves (%s) before it joins (%s)",
				lc.Machine, lc.Leave.Format(time.RFC3339), lc.Join.Format(time.RFC3339))}
		}
	}
	return nil
}

func extraLab(cfg Config, lb string) bool {
	for _, e := range cfg.ExtraMachines {
		if e.Lab == lb {
			return true
		}
	}
	return false
}
