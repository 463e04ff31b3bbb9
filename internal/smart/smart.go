// Package smart models the two S.M.A.R.T. hard-disk attributes the paper
// exploits to study machine availability beyond what 15-minute sampling can
// see: the power-cycle count (attribute 12) and the power-on hours count
// (attribute 9).
//
// Both counters cover the whole life of the disk, not just the monitoring
// window, which is what lets the paper estimate the lifetime average uptime
// per power cycle (6.46 h) and detect short sessions that escape sampling.
package smart

import (
	"fmt"
	"time"
)

// Disk models one hard disk with SMART counters.
//
// PowerOnHours is tracked internally with sub-hour resolution but reported
// truncated to whole hours, matching real SMART attribute 9 semantics.
type Disk struct {
	Serial string
	SizeGB float64

	powered   bool
	poweredAt time.Time

	cycles  int64         // attribute 12: lifetime count of power-on events
	powerOn time.Duration // attribute 9: lifetime powered-on duration
}

// NewDisk creates a powered-off disk with the given identity.
func NewDisk(serial string, sizeGB float64) *Disk {
	return &Disk{Serial: serial, SizeGB: sizeGB}
}

// SeedLife initialises the pre-experiment life of the disk: cycles power
// cycles totalling powerOn hours of operation. The paper's machines were
// less than 3 years old and averaged 6.46 h of uptime per lifetime cycle.
func (d *Disk) SeedLife(cycles int64, powerOn time.Duration) {
	if cycles < 0 || powerOn < 0 {
		panic("smart: negative seed life")
	}
	d.cycles = cycles
	d.powerOn = powerOn
}

// PowerOn records a power-on event at time t, incrementing the cycle count.
// Powering on an already-powered disk panics: it indicates a machine-model
// bug that would corrupt the counters.
func (d *Disk) PowerOn(t time.Time) {
	if d.powered {
		panic(fmt.Sprintf("smart: disk %s powered on twice", d.Serial))
	}
	d.powered = true
	d.poweredAt = t
	d.cycles++
}

// PowerOff records a power-off event at time t, folding the elapsed
// powered-on time into the power-on-hours counter.
func (d *Disk) PowerOff(t time.Time) {
	if !d.powered {
		panic(fmt.Sprintf("smart: disk %s powered off while off", d.Serial))
	}
	d.powerOn += t.Sub(d.poweredAt)
	d.powered = false
}

// PowerCycleCount returns SMART attribute 12 as of time t.
func (d *Disk) PowerCycleCount(t time.Time) int64 { return d.cycles }

// PowerOnHours returns SMART attribute 9 as of time t, truncated to whole
// hours like the real attribute.
func (d *Disk) PowerOnHours(t time.Time) int64 {
	return int64(d.powerOnDuration(t) / time.Hour)
}

// powerOnDuration returns the precise lifetime powered-on duration at t.
func (d *Disk) powerOnDuration(t time.Time) time.Duration {
	total := d.powerOn
	if d.powered && t.After(d.poweredAt) {
		total += t.Sub(d.poweredAt)
	}
	return total
}
