package harness

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// median returns the middle of xs (mean of the middle two for even n);
// NaN for an empty slice so a missing sample set can never pass for a
// measurement.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (exclusive
// method) — the rule the benchmark's acceptance check uses for spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

func nanosToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// CPU clocks (clock_gettime): the scheduler's own nanosecond accounting,
// unlike getrusage's tick-sampled user/system split, so the generator's
// many short busy-waits can be subtracted from the process total.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// cpuNanos is the process's user+system CPU time so far.
func cpuNanos() int64 { return cpuClock(clockProcessCPU) }

// threadCPUNanos is the calling thread's CPU time so far; meaningful to a
// goroutine only while it is locked to its thread.
func threadCPUNanos() int64 { return cpuClock(clockThreadCPU) }

// rssPeakMB is the process's peak resident set in MB (Linux reports KB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heapLive returns the bytes still reachable after collecting twice: the
// second cycle empties the sync.Pool victim caches, so recycled chunks and
// contexts that happen to be pooled do not count as state. A system whose
// state moves by itself while the collections run supplies freeze, which
// stops it and returns what lets it go on.
func heapLive(freeze func() (thaw func())) uint64 {
	if freeze != nil {
		defer freeze()()
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// section brackets a measured section with the process-wide counters the
// end-to-end and rt.* metrics are deltas of.
type section struct {
	wall0  time.Time
	cpu0   int64
	mem0   runtime.MemStats
	Wall   time.Duration
	CPUNs  int64
	Bytes  uint64
	Allocs uint64
	GCs    uint32
	PauseN uint64
}

func beginSection() *section {
	s := &section{}
	runtime.ReadMemStats(&s.mem0)
	s.cpu0 = cpuNanos()
	s.wall0 = time.Now()
	return s
}

func (s *section) end() {
	s.Wall = time.Since(s.wall0)
	s.CPUNs = cpuNanos() - s.cpu0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.Bytes = m.TotalAlloc - s.mem0.TotalAlloc
	s.Allocs = m.Mallocs - s.mem0.Mallocs
	s.GCs = m.NumGC - s.mem0.NumGC
	s.PauseN = m.PauseTotalNs - s.mem0.PauseTotalNs
}
