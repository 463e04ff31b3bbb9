package analysis

// AgeBucket aggregates login samples whose session age falls in
// [Hour, Hour+1) hours: the paper's Figure 2.
type AgeBucket struct {
	Hour       int
	Samples    int64
	CPUIdlePct float64
}

// SessionAgeProfile groups login samples by the relative age of their
// interactive session and reports the average CPU idleness per one-hour
// bucket. The paper uses this profile to pick the forgotten-session
// threshold: the first bucket with ≥99% average idleness marks sessions
// that are open but unattended. Idleness comes from the intervals whose
// closing sample has a session; ages at or beyond the profile's depth
// (Options.SessionAgeHours) fold into the last bucket.
type SessionAgeProfile struct {
	Buckets []AgeBucket
}

// FirstBucketAtOrAbove returns the first bucket hour whose average CPU
// idleness is at least pct, or -1 when none qualifies. Applied with 99%,
// this reproduces the paper's choice of the 10-hour threshold.
func (p SessionAgeProfile) FirstBucketAtOrAbove(pct float64) int {
	for _, b := range p.Buckets {
		if b.Samples > 0 && b.CPUIdlePct >= pct {
			return b.Hour
		}
	}
	return -1
}
