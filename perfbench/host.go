package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuNow returns the process's CPU time so far (user + system, every
// thread), the clock every gated host-time number is read from. Steal
// by the hypervisor stretches wall time but not CPU time, which is why
// the benchmark gates on this and only reports wall time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU returns the calling thread's CPU time. The caller locks
// itself to its thread around the interval it measures.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// maxRSSMiB returns the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostSample is one reading of the counters the host-noise diagnostics
// are differences of.
type hostSample struct {
	wall  time.Time
	cpu   time.Duration
	steal uint64 // /proc/stat steal ticks, all CPUs
	total uint64 // /proc/stat ticks of every state, all CPUs
	gc    float64
	alloc uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func sampleHost() hostSample {
	h := hostSample{wall: time.Now(), cpu: cpuNow()}
	h.steal, h.total = procStatCPU()
	metrics.Read(runtimeSamples)
	h.gc = runtimeSamples[0].Value.Float64()
	h.alloc = runtimeSamples[1].Value.Uint64()
	return h
}

// procStatCPU reads the aggregate "cpu" line of /proc/stat. Both
// results are zero where the file is missing or unparsable: the steal
// share is a diagnostic, never a gate.
func procStatCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted inside user and nice.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// hostDelta is the host-noise picture between two samples.
type hostDelta struct {
	WallS      float64 // wall seconds
	CPUS       float64 // process CPU seconds
	StealFrac  float64 // hypervisor steal share of all CPU ticks
	GCCPUFrac  float64 // GC share of the process's CPU time
	AllocBytes float64 // heap bytes allocated
}

func (a hostSample) to(b hostSample) hostDelta {
	d := hostDelta{
		WallS:      b.wall.Sub(a.wall).Seconds(),
		CPUS:       (b.cpu - a.cpu).Seconds(),
		AllocBytes: float64(b.alloc - a.alloc),
	}
	if b.total > a.total {
		d.StealFrac = float64(b.steal-a.steal) / float64(b.total-a.total)
	}
	if d.CPUS > 0 {
		d.GCCPUFrac = (b.gc - a.gc) / d.CPUS
	}
	return d
}
