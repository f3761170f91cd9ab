package main

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
)

// The box this benchmark is sized for is a guest on an oversubscribed
// host: over an epoch the hypervisor keeps the guest's runnable virtual
// CPUs waiting for 5–40% of the time, by the minute (README.md, "Noise").
// That waiting is in every wall-clock reading and is no property of the
// program. The kernel reports it — the "steal" column of /proc/stat — so
// the benchmark reads it around everything it times and takes it out.

// userHz is the unit of /proc/stat's columns, 1/100 s on every Linux port.
const userHz = 100

// stolenSeconds returns how long, since boot, the hypervisor has kept
// runnable virtual CPUs of this guest waiting, summed over CPUs; 0 where
// the kernel does not say (no /proc/stat, no steal column, bare metal).
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return parseStolen(b)
}

// parseStolen reads the steal column — the eighth number — of the
// aggregate "cpu" line of a /proc/stat image.
func parseStolen(stat []byte) float64 {
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(string(f[8]), 10, 64)
	if err != nil {
		return 0
	}
	return float64(ticks) / userHz
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stint is one timed call: its wall seconds, the CPU seconds (user+sys,
// all threads) the process got inside it, and the seconds stolen from the
// guest meanwhile.
type stint struct {
	Wall   float64 `json:"wall"`
	CPU    float64 `json:"cpu"`
	Stolen float64 `json:"stolen"`
}

// stolenCost is what one stolen second costs in CPU seconds the process
// did not get. The bare arithmetic says 1. But stolen time comes with
// company the counter does not show: a worker whose partner's virtual CPU
// was taken waits for it idle, which is not steal; the virtual CPU comes
// back to cold caches; and a host busy enough to steal also keeps the
// core's other hardware thread busy. At 1 a run in a heavily stolen
// minute still reads up to 13% slower than one in a quiet minute
// (correlation of a run's fast epoch with its stolen share +0.6 to +0.9
// over 40 runs per workload), at 1.7 faster (−0.7 to −0.9); the
// correlation crossed zero at 1.35–1.4 on three of the four workloads,
// and there the spread between runs was least. Twenty later runs per
// workload agree (README.md, "Noise").
const stolenCost = 1.35

// own is the stint's wall seconds with the host's share taken out. Of the
// CPU time the process was ready to use, CPU + stolenCost·Stolen, it got
// CPU; the call would have returned that much sooner on a host that stole
// nothing. One busy thread loses every stolen second from its wall time,
// two parallel ones half of each — wall·CPU/(CPU+Stolen) is both. Where
// nothing is stolen, or reported, it is the wall time.
func (s stint) own() float64 {
	if s.CPU <= 0 || s.Stolen <= 0 {
		return s.Wall
	}
	return s.Wall * s.CPU / (s.CPU + stolenCost*s.Stolen)
}

// clock runs fn under a span and returns its stint.
func (r *spanRecorder) clock(name string, fn func()) stint {
	stolen, cpu := stolenSeconds(), cpuSeconds()
	wall := r.time(name, fn)
	return stint{Wall: wall.Seconds(), CPU: cpuSeconds() - cpu, Stolen: stolenSeconds() - stolen}
}

// column returns f of every stint.
func column(ss []stint, f func(stint) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}
