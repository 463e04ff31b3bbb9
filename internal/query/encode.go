package query

import (
	"strconv"

	"winlab/internal/anomaly"
	"winlab/internal/jsonx"
)

// The response encoders are append-style and byte-identical to
// encoding/json (field order, HTML-safe string escaping, RFC3339Nano
// times, shortest-round-trip floats) — the same contract as the
// telemetry span and anomaly event encoders, pinned by the golden tests
// in encode_test.go. They run only on the cache-miss path (once per
// endpoint per epoch); cache hits serve the bytes these produced.

func appendMeta(dst []byte, m *Meta) []byte {
	dst = append(dst, `{"epoch":`...)
	dst = strconv.AppendUint(dst, m.Epoch, 10)
	dst = append(dst, `,"fingerprint":`...)
	dst = jsonx.AppendString(dst, m.Fingerprint)
	dst = append(dst, `,"start":`...)
	dst = jsonx.AppendTime(dst, m.Start)
	dst = append(dst, `,"end":`...)
	dst = jsonx.AppendTime(dst, m.End)
	dst = append(dst, `,"period_sec":`...)
	dst = jsonx.AppendFloat(dst, m.PeriodSec)
	dst = append(dst, `,"iterations":`...)
	dst = strconv.AppendInt(dst, int64(m.Iterations), 10)
	dst = append(dst, `,"samples":`...)
	dst = strconv.AppendInt(dst, int64(m.Samples), 10)
	dst = append(dst, `,"machines":`...)
	dst = strconv.AppendInt(dst, int64(m.Machines), 10)
	return append(dst, '}')
}

func appendColumn(dst []byte, c *Column) []byte {
	dst = append(dst, `{"samples":`...)
	dst = strconv.AppendInt(dst, int64(c.Samples), 10)
	dst = append(dst, `,"uptime_pct":`...)
	dst = jsonx.AppendFloat(dst, c.UptimePct)
	dst = append(dst, `,"cpu_idle_pct":`...)
	dst = jsonx.AppendFloat(dst, c.CPUIdlePct)
	dst = append(dst, `,"ram_load_pct":`...)
	dst = jsonx.AppendFloat(dst, c.RAMLoadPct)
	dst = append(dst, `,"swap_load_pct":`...)
	dst = jsonx.AppendFloat(dst, c.SwapLoadPct)
	dst = append(dst, `,"disk_used_gb":`...)
	dst = jsonx.AppendFloat(dst, c.DiskUsedGB)
	dst = append(dst, `,"sent_bps":`...)
	dst = jsonx.AppendFloat(dst, c.SentBps)
	dst = append(dst, `,"recv_bps":`...)
	dst = jsonx.AppendFloat(dst, c.RecvBps)
	return append(dst, '}')
}

func appendSummary(dst []byte, s *Summary) []byte {
	dst = append(dst, `{"meta":`...)
	dst = appendMeta(dst, &s.Meta)
	dst = append(dst, `,"no_login":`...)
	dst = appendColumn(dst, &s.NoLogin)
	dst = append(dst, `,"with_login":`...)
	dst = appendColumn(dst, &s.WithLogin)
	dst = append(dst, `,"both":`...)
	dst = appendColumn(dst, &s.Both)
	dst = append(dst, `,"avg_powered_on":`...)
	dst = jsonx.AppendFloat(dst, s.AvgPoweredOn)
	dst = append(dst, `,"avg_user_free":`...)
	dst = jsonx.AppendFloat(dst, s.AvgUserFree)
	dst = append(dst, `,"equivalence_occupied":`...)
	dst = jsonx.AppendFloat(dst, s.EquivalenceOccupied)
	dst = append(dst, `,"equivalence_free":`...)
	dst = jsonx.AppendFloat(dst, s.EquivalenceFree)
	dst = append(dst, `,"equivalence_total":`...)
	dst = jsonx.AppendFloat(dst, s.EquivalenceTotal)
	dst = append(dst, `,"power_cycles_total":`...)
	dst = strconv.AppendInt(dst, s.PowerCyclesTotal, 10)
	dst = append(dst, `,"power_cycles_per_day":`...)
	dst = jsonx.AppendFloat(dst, s.PowerCyclesPerDay)
	dst = append(dst, `,"lifetime_per_cycle_h":`...)
	dst = jsonx.AppendFloat(dst, s.LifetimePerCycleH)
	dst = append(dst, `,"session_count":`...)
	dst = strconv.AppendInt(dst, int64(s.SessionCount), 10)
	dst = append(dst, `,"session_mean_h":`...)
	dst = jsonx.AppendFloat(dst, s.SessionMeanH)
	dst = append(dst, `,"fleet_free_ram_gb":`...)
	dst = jsonx.AppendFloat(dst, s.FleetFreeRAMGB)
	dst = append(dst, `,"fleet_free_disk_tb":`...)
	dst = jsonx.AppendFloat(dst, s.FleetFreeDiskTB)
	return append(dst, '}')
}

func appendAvailability(dst []byte, a *Availability) []byte {
	dst = append(dst, `{"meta":`...)
	dst = appendMeta(dst, &a.Meta)
	dst = append(dst, `,"points":`...)
	if a.Points == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range a.Points {
			if i > 0 {
				dst = append(dst, ',')
			}
			p := &a.Points[i]
			dst = append(dst, `{"iter":`...)
			dst = strconv.AppendInt(dst, int64(p.Iter), 10)
			dst = append(dst, `,"t":`...)
			dst = strconv.AppendInt(dst, p.T, 10)
			dst = append(dst, `,"on":`...)
			dst = strconv.AppendInt(dst, int64(p.On), 10)
			dst = append(dst, `,"free":`...)
			dst = strconv.AppendInt(dst, int64(p.Free), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendLabs(dst []byte, ls *Labs) []byte {
	dst = append(dst, `{"meta":`...)
	dst = appendMeta(dst, &ls.Meta)
	dst = append(dst, `,"labs":`...)
	if ls.Labs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range ls.Labs {
			if i > 0 {
				dst = append(dst, ',')
			}
			l := &ls.Labs[i]
			dst = append(dst, `{"lab":`...)
			dst = jsonx.AppendString(dst, l.Lab)
			dst = append(dst, `,"machines":`...)
			dst = strconv.AppendInt(dst, int64(l.Machines), 10)
			dst = append(dst, `,"uptime_pct":`...)
			dst = jsonx.AppendFloat(dst, l.UptimePct)
			dst = append(dst, `,"occupied_pct":`...)
			dst = jsonx.AppendFloat(dst, l.OccupiedPct)
			dst = append(dst, `,"cpu_idle_pct":`...)
			dst = jsonx.AppendFloat(dst, l.CPUIdlePct)
			dst = append(dst, `,"ram_load_pct":`...)
			dst = jsonx.AppendFloat(dst, l.RAMLoadPct)
			dst = append(dst, `,"free_ram_mb":`...)
			dst = jsonx.AppendFloat(dst, l.FreeRAMMB)
			dst = append(dst, `,"free_disk_gb":`...)
			dst = jsonx.AppendFloat(dst, l.FreeDiskGB)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendMachines(dst []byte, ms *Machines) []byte {
	dst = append(dst, `{"meta":`...)
	dst = appendMeta(dst, &ms.Meta)
	dst = append(dst, `,"machines":`...)
	if ms.Machines == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range ms.Machines {
			if i > 0 {
				dst = append(dst, ',')
			}
			m := &ms.Machines[i]
			dst = append(dst, `{"id":`...)
			dst = jsonx.AppendString(dst, m.ID)
			dst = append(dst, `,"lab":`...)
			dst = jsonx.AppendString(dst, m.Lab)
			dst = append(dst, `,"uptime_ratio":`...)
			dst = jsonx.AppendFloat(dst, m.UptimeRatio)
			dst = append(dst, `,"nines":`...)
			dst = jsonx.AppendFloat(dst, m.Nines)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendWeekly(dst []byte, w *Weekly) []byte {
	dst = append(dst, `{"meta":`...)
	dst = appendMeta(dst, &w.Meta)
	dst = append(dst, `,"slot_minutes":`...)
	dst = strconv.AppendInt(dst, int64(w.SlotMinutes), 10)
	dst = append(dst, `,"cpu_idle_pct":`...)
	dst = appendFloats(dst, w.CPUIdlePct)
	dst = append(dst, `,"ram_load_pct":`...)
	dst = appendFloats(dst, w.RAMLoadPct)
	dst = append(dst, `,"swap_load_pct":`...)
	dst = appendFloats(dst, w.SwapLoadPct)
	dst = append(dst, `,"sent_bps":`...)
	dst = appendFloats(dst, w.SentBps)
	dst = append(dst, `,"recv_bps":`...)
	dst = appendFloats(dst, w.RecvBps)
	return append(dst, '}')
}

func appendEquivalence(dst []byte, e *Equivalence) []byte {
	dst = append(dst, `{"meta":`...)
	dst = appendMeta(dst, &e.Meta)
	dst = append(dst, `,"occupied":`...)
	dst = jsonx.AppendFloat(dst, e.Occupied)
	dst = append(dst, `,"free":`...)
	dst = jsonx.AppendFloat(dst, e.Free)
	dst = append(dst, `,"total":`...)
	dst = jsonx.AppendFloat(dst, e.Total)
	dst = append(dst, `,"weekly_total":`...)
	dst = appendFloats(dst, e.WeeklyTotal)
	dst = append(dst, `,"weekly_occupied":`...)
	dst = appendFloats(dst, e.WeeklyOccupied)
	dst = append(dst, `,"weekly_free":`...)
	dst = appendFloats(dst, e.WeeklyFree)
	return append(dst, '}')
}

func appendUptimes(dst []byte, u *Uptimes) []byte {
	dst = append(dst, `{"meta":`...)
	dst = appendMeta(dst, &u.Meta)
	dst = append(dst, `,"bins":`...)
	dst = strconv.AppendInt(dst, int64(u.Bins), 10)
	dst = append(dst, `,"counts":`...)
	dst = appendInts(dst, u.Counts)
	dst = append(dst, `,"above_50":`...)
	dst = strconv.AppendInt(dst, int64(u.Above50), 10)
	dst = append(dst, `,"above_80":`...)
	dst = strconv.AppendInt(dst, int64(u.Above80), 10)
	dst = append(dst, `,"above_90":`...)
	dst = strconv.AppendInt(dst, int64(u.Above90), 10)
	return append(dst, '}')
}

func appendHeatmap(dst []byte, h *Heatmap) []byte {
	dst = append(dst, `{"meta":`...)
	dst = appendMeta(dst, &h.Meta)
	dst = append(dst, `,"hours":`...)
	dst = strconv.AppendInt(dst, int64(h.Hours), 10)
	dst = append(dst, `,"free_machines":`...)
	dst = appendFloats(dst, h.FreeMachines)
	dst = append(dst, `,"machines":`...)
	if h.Machines == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range h.Machines {
			if i > 0 {
				dst = append(dst, ',')
			}
			r := &h.Machines[i]
			dst = append(dst, `{"id":`...)
			dst = jsonx.AppendString(dst, r.ID)
			dst = append(dst, `,"lab":`...)
			dst = jsonx.AppendString(dst, r.Lab)
			dst = append(dst, `,"uptime":`...)
			dst = appendFloats(dst, r.Uptime)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendEvents(dst []byte, e *Events) []byte {
	dst = append(dst, `{"epoch":`...)
	dst = strconv.AppendUint(dst, e.Epoch, 10)
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendUint(dst, e.Total, 10)
	dst = append(dst, `,"events":`...)
	if e.Events == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range e.Events {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendEventRecord(dst, &e.Events[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendEventRecord(dst []byte, r *EventRecord) []byte {
	dst = append(dst, `{"epoch":`...)
	dst = strconv.AppendUint(dst, r.Epoch, 10)
	dst = append(dst, `,"event":`...)
	dst = anomaly.AppendEventJSON(dst, r.Event)
	return append(dst, '}')
}

// appendFloats appends a []float64 as encoding/json would (nil → null).
func appendFloats(dst []byte, xs []float64) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonx.AppendFloat(dst, x)
	}
	return append(dst, ']')
}

// appendInts appends a []int as encoding/json would (nil → null).
func appendInts(dst []byte, xs []int) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}
