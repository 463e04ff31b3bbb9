package machine

import "fmt"

// Hardware describes the fixed characteristics of a simulated machine,
// mirroring the static metrics W32Probe reports (§3.1.1 of the paper) plus
// the NBench performance indexes of Table 1.
type Hardware struct {
	CPUModel string  // e.g. "Intel Pentium 4"
	CPUGHz   float64 // operating frequency in GHz
	RAMMB    int     // installed main memory
	SwapMB   int     // configured virtual memory (pagefile)
	DiskGB   float64 // hard disk capacity
	IntIndex float64 // NBench integer index
	FPIndex  float64 // NBench floating-point index
	MACs     []string
	OS       string // operating system name and version
}

// PerfIndex is the paper's combined NBench index, 50 % INT + 50 % FP:
// the weight of a machine in the cluster-equivalence ratio (§5.4).
func PerfIndex(intIndex, fpIndex float64) float64 { return 0.5*intIndex + 0.5*fpIndex }

// DefaultSwapMB returns the Windows 2000 default pagefile size for a
// machine with ramMB of memory (1.5 × RAM).
func DefaultSwapMB(ramMB int) int { return ramMB * 3 / 2 }

// SyntheticMAC derives a stable locally-administered MAC address from a
// machine index, for the probe's network-interface report.
func SyntheticMAC(idx int) string {
	return fmt.Sprintf("02:57:4C:%02X:%02X:%02X",
		(idx>>16)&0xFF, (idx>>8)&0xFF, idx&0xFF)
}
