package machine

import "time"

// Snapshot is everything W32Probe can observe on a machine at one instant.
// It is the boundary between the simulated fleet and the collector: the
// probe renders a Snapshot to text, and nothing downstream ever touches the
// Machine again.
type Snapshot struct {
	Time time.Time
	ID   string
	Lab  string

	// Static metrics.
	CPUModel string
	CPUGHz   float64
	RAMMB    int
	SwapMB   int
	DiskGB   float64
	Serial   string
	MACs     []string
	OS       string

	// Dynamic metrics.
	BootTime     time.Time
	Uptime       time.Duration
	CPUIdle      time.Duration // cumulative idle-thread time since boot
	MemLoadPct   int           // dwMemoryLoad-style integer percentage
	SwapLoadPct  int
	FreeDiskGB   float64
	PowerCycles  int64  // SMART attribute 12
	PowerOnHours int64  // SMART attribute 9
	SentBytes    uint64 // per-boot NIC counter
	RecvBytes    uint64

	// Interactive session; empty user means none.
	SessionUser  string
	SessionStart time.Time
}

// HasSession reports whether an interactive user was logged in.
func (s Snapshot) HasSession() bool { return s.SessionUser != "" }

// Snapshot probes the machine at time t. It returns ok=false when the
// machine is powered off — the remote execution would have timed out.
func (m *Machine) Snapshot(t time.Time) (Snapshot, bool) {
	if !m.powered {
		return Snapshot{}, false
	}
	m.advance(t)
	s := Snapshot{
		Time:         t,
		ID:           m.ID,
		Lab:          m.Lab,
		CPUModel:     m.HW.CPUModel,
		CPUGHz:       m.HW.CPUGHz,
		RAMMB:        m.HW.RAMMB,
		SwapMB:       m.HW.SwapMB,
		DiskGB:       m.HW.DiskGB,
		Serial:       m.Disk.Serial,
		MACs:         m.HW.MACs,
		OS:           m.HW.OS,
		BootTime:     m.bootTime,
		Uptime:       t.Sub(m.bootTime),
		CPUIdle:      m.idleCPU,
		MemLoadPct:   int(m.MemLoadPct() + 0.5),
		SwapLoadPct:  int(m.SwapLoadPct() + 0.5),
		FreeDiskGB:   m.HW.DiskGB - m.UsedDiskGB(),
		PowerCycles:  m.Disk.PowerCycleCount(t),
		PowerOnHours: m.Disk.PowerOnHours(t),
		SentBytes:    uint64(m.sentBytes),
		RecvBytes:    uint64(m.recvBytes),
	}
	if m.session != nil {
		s.SessionUser = m.session.User
		s.SessionStart = m.session.Start
	}
	return s, true
}
