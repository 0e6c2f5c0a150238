package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// cpuTimes is the aggregate "cpu" line of /proc/stat: the total of its
// first eight fields (user through steal) and steal, in clock ticks.
type cpuTimes struct {
	total, steal uint64
	ok           bool
}

// readCPU reads /proc/stat; ok is false where it does not exist.
func readCPU() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	return parseCPULine(sc.Text())
}

func parseCPULine(line string) cpuTimes {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// stealPct is the share of CPU time the hypervisor took from this VM
// between two readings, in percent; -1 when it could not be read.
func stealPct(a, b cpuTimes) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return -1
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

var refSink float64

// hostRefMS times a fixed, allocation-free floating-point loop five times
// on one goroutine while nothing else runs, and returns the median in ms.
// It measures the host alone: a hypervisor can slow a VM by half without
// reporting any steal, and a run made in such a phase shows it here.
func hostRefMS() float64 {
	xs := make([]float64, 5)
	for i := range xs {
		start := time.Now()
		x := 1.0
		for k := 0; k < 1_000_000; k++ {
			x = x*1.0000001 + 0.5/x
		}
		refSink = x
		xs[i] = ms(time.Since(start).Nanoseconds())
	}
	return median(xs)
}
