package machine

// Activity is a named bundle of resource consumption running on a machine:
// the OS background load, an interactive user's applications, a
// CPU-intensive class exercise, a download burst. The behaviour model
// installs, replaces and removes activities at event boundaries; between
// boundaries the machine integrates their aggregate rates.
type Activity struct {
	Name    string
	CPU     float64 // busy fraction of one CPU, 0..1
	SendBps float64 // network send rate, bits per second
	RecvBps float64 // network receive rate, bits per second
	MemMB   float64 // additional main-memory commit
	SwapMB  float64 // additional pagefile commit
	DiskGB  float64 // additional disk usage while active
}

// Well-known activity names used by the behaviour model. Keeping them in
// one place lets tests and ablations address specific workload components.
const (
	ActOSBackground = "os-background" // services, indexing, the 0.3% baseline
	ActInteractive  = "interactive"   // the logged-in user's applications
	ActClass        = "class"         // class exercise (e.g. the Tuesday CPU hog)
)
