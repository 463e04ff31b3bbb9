package behavior

import (
	"sort"
	"time"

	"winlab/internal/rng"
)

// Calendar answers "are the classrooms open at time t?" following the
// paper's §4.2: open 20 hours per day on weekdays (closed 4 am – 8 am),
// open Saturdays until 9 pm, closed from Saturday 9 pm to Monday 8 am.
//
// The hour pattern is interpreted as wall-clock time in Loc (UTC when
// nil), so a lab in a DST-shifting zone opens at 8 am local year-round.
// AlwaysOpen describes a room that never closes (a server pool): IsOpen
// is constantly true.
type Calendar struct {
	OpenHour     int
	NightClose   int
	SatCloseHour int
	Loc          *time.Location // wall-clock zone; nil = UTC
	AlwaysOpen   bool           // never closes (server pools)
}

func (c Calendar) loc() *time.Location {
	if c.Loc != nil {
		return c.Loc
	}
	return time.UTC
}

// IsOpen reports whether the classrooms are open at t.
func (c Calendar) IsOpen(t time.Time) bool {
	if c.AlwaysOpen {
		return true
	}
	lt := t.In(c.loc())
	h := lt.Hour()
	switch lt.Weekday() {
	case time.Sunday:
		return false
	case time.Monday:
		// Weekend closure runs until Monday 8 am.
		return h >= c.OpenHour
	case time.Saturday:
		// Friday-night carry-over until 4 am, then open 8 am – 9 pm.
		if h < c.NightClose {
			return true
		}
		return h >= c.OpenHour && h < c.SatCloseHour
	default: // Tuesday–Friday
		return h < c.NightClose || h >= c.OpenHour
	}
}

// wallHour truncates t to the start of its wall-clock hour in t's own
// location. (Truncate aligns to UTC hours, which is wrong in a zone
// whose offset is not a whole number of hours or shifts with DST.)
func wallHour(t time.Time) time.Time {
	return time.Date(t.Year(), t.Month(), t.Day(), t.Hour(), 0, 0, 0, t.Location())
}

// nextWallHour steps to the next wall-clock hour boundary, normalising
// across DST transitions: spring-forward skips the missing hour (2 am →
// 3 am), and the guard keeps the scan monotonic through fall-back's
// repeated hour so it can never stall.
func nextWallHour(t time.Time) time.Time {
	u := time.Date(t.Year(), t.Month(), t.Day(), t.Hour()+1, 0, 0, 0, t.Location())
	if !u.After(t) {
		u = t.Add(time.Hour)
	}
	return u
}

// Class is one scheduled class occurrence pattern: a lab, a weekday, a
// start hour and a duration, repeating every week of the experiment.
type Class struct {
	Lab       string
	Day       time.Weekday
	StartHour int
	Duration  time.Duration
	CPUHog    bool // the Tuesday-afternoon CPU-intensive class (§5.3)
}

// Timetable is the weekly class schedule for all labs.
type Timetable struct {
	Classes []Class
}

// GenerateTimetable draws a weekly timetable. Weekday class starts come
// from the 2-hour teaching grid (8, 10, 14, 16, 18 with an occasional 12
// o'clock slot); Saturdays use a reduced grid. The configured CPU-hog class
// is always present.
func GenerateTimetable(cfg Config, labs []string, src *rng.Source) Timetable {
	weekdayStarts := []int{8, 10, 12, 14, 16, 18}
	weekdayWeights := []float64{1.2, 1.4, 0.4, 1.4, 1.2, 0.8}
	satStarts := []int{9, 11, 14}

	var tt Timetable
	for _, lb := range labs {
		for d := time.Monday; d <= time.Friday; d++ {
			n := src.Poisson(cfg.WeekdayClassMeanPerLab)
			if n > 4 {
				n = 4
			}
			used := map[int]bool{}
			for i := 0; i < n; i++ {
				start := weekdayStarts[src.Pick(weekdayWeights)]
				if used[start] {
					continue
				}
				used[start] = true
				tt.Classes = append(tt.Classes, Class{
					Lab: lb, Day: d, StartHour: start, Duration: cfg.ClassDuration,
				})
			}
		}
		if n := src.Poisson(cfg.SaturdayClassMeanPerLab); n > 0 {
			if n > 2 {
				n = 2
			}
			used := map[int]bool{}
			for i := 0; i < n; i++ {
				start := satStarts[src.Intn(len(satStarts))]
				if used[start] {
					continue
				}
				used[start] = true
				tt.Classes = append(tt.Classes, Class{
					Lab: lb, Day: time.Saturday, StartHour: start, Duration: cfg.ClassDuration,
				})
			}
		}
	}
	// The CPU-intensive practical class observed by the paper: every
	// CPUHogDay afternoon in the configured labs, displacing any generated
	// class that would overlap it.
	for _, lb := range cfg.CPUHogLabs {
		hog := Class{
			Lab: lb, Day: cfg.CPUHogDay, StartHour: cfg.CPUHogStartHour,
			Duration: cfg.CPUHogDuration, CPUHog: true,
		}
		kept := tt.Classes[:0]
		for _, c := range tt.Classes {
			if c.Lab == lb && c.Day == hog.Day && overlaps(c, hog) {
				continue
			}
			kept = append(kept, c)
		}
		tt.Classes = append(kept, hog)
	}
	sort.Slice(tt.Classes, func(i, j int) bool {
		a, b := tt.Classes[i], tt.Classes[j]
		if a.Day != b.Day {
			return a.Day < b.Day
		}
		if a.StartHour != b.StartHour {
			return a.StartHour < b.StartHour
		}
		return a.Lab < b.Lab
	})
	return tt
}

func overlaps(a, b Class) bool {
	aEnd := a.StartHour + int(a.Duration/time.Hour)
	bEnd := b.StartHour + int(b.Duration/time.Hour)
	return a.StartHour < bEnd && b.StartHour < aEnd
}
