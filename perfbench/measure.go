package main

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time. Time stolen from the VM
// by its hypervisor is not counted, which is why the cost metrics use it
// rather than wall time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU is the machine-wide /proc/stat CPU counters, in clock ticks.
type hostCPU struct{ steal, total uint64 }

// readHostCPU reads the aggregate "cpu" line of /proc/stat; the zero value
// stands for a host without it.
func readHostCPU() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostCPU{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal; guest time is
	// already included in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealFrac is the share of host CPU time stolen between two readings.
func stealFrac(from, to hostCPU) float64 {
	if to.total <= from.total {
		return 0
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}

// liveHeap is the heap still reachable after two forced collections (the
// second one empties the sync.Pool victim caches the first one kept).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return sortedQuantile(s, 0.5)
}

// sortedQuantile returns the q-quantile of the sorted s by linear
// interpolation between order statistics (0 for none).
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
