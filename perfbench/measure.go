package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"sourcerank/internal/sysmem"
)

// median returns the median of xs (the mean of the middle pair for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		k := int(pos)
		frac := pos - float64(k)
		if k < 1 {
			return s[0]
		}
		if k >= n {
			return s[n-1]
		}
		return s[k-1] + (s[k]-s[k-1])*frac
	}
	return at(1), at(3)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedStrings(xs []string) []string {
	s := slices.Clone(xs)
	sort.Strings(s)
	return s
}

// samples collects named per-round values whose medians become metrics.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) median(name string) float64 { return median(s[name]) }

// settle returns garbage to the operating system before a measured
// phase, so that neither the next timed call nor the RSS readings pay
// for the previous phase's leftovers.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// cpuClock reads a CPU-time clock in nanoseconds.
//
// The benchmark's end-to-end times are CPU time, reported in unit
// "cpu_s" (setup_s too, though its unit is written "s"). On a virtual
// machine whose host takes CPU time away in bursts (the steal column of
// /proc/stat), wall times of identical runs swing by tens of percent
// while their CPU times hold; CPU time leaves the stolen intervals out.
// It also leaves out time spent waiting (on disk, or for an idle
// worker) and counts every thread, so each timed call's wall time is
// kept beside it and reported among the per-layer metrics.
type cpuClock func() int64

// processCPU is the user and system time of all the process's threads.
func processCPU() int64 { return clockNanos(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadCPU returns the CPU-time clock of thread tid of this process.
func threadCPU(tid int) cpuClock {
	id := int32(^tid)<<3 | 6 // MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)
	return func() int64 { return clockNanos(id) }
}

func clockNanos(id int32) int64 {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, e))
	}
	return ts.Nano()
}

// timing is one timed call's CPU and wall time, in seconds.
type timing struct{ cpu, wall float64 }

// addTiming records t as name (CPU) and wall.name (wall clock).
func (s samples) addTiming(name string, t timing) {
	s.add(name, t.cpu)
	s.add("wall."+name, t.wall)
}

// timeCall runs fn after a garbage collection and returns the CPU time
// it took on clock and its wall time.
func timeCall(clock cpuClock, fn func() error) (timing, error) {
	runtime.GC()
	c0, t0 := clock(), time.Now()
	err := fn()
	return timing{float64(clock()-c0) / 1e9, time.Since(t0).Seconds()}, err
}

// latencyHist records read latencies at 1 ns resolution below histMax
// and exactly above it, so its percentiles are the measured values
// without keeping one entry per read.
type latencyHist struct {
	counts []uint32
	over   []int64
	n      int64
}

const histMax = 1 << 17 // ns

func newLatencyHist() *latencyHist { return &latencyHist{counts: make([]uint32, histMax)} }

func (h *latencyHist) add(ns int64) {
	h.n++
	if ns >= 0 && ns < histMax {
		h.counts[ns]++
		return
	}
	h.over = append(h.over, ns)
}

// quantile returns the q-quantile (0 < q < 1) in seconds: the smallest
// recorded value with at least q of all values at or below it.
func (h *latencyHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	want := int64(q*float64(h.n) + 0.5)
	if want < 1 {
		want = 1
	}
	var seen int64
	for ns, c := range h.counts {
		seen += int64(c)
		if seen >= want {
			return float64(ns) / 1e9
		}
	}
	slices.Sort(h.over)
	return float64(h.over[want-seen-1]) / 1e9
}

// rssSampler reads the process's resident set size on a fixed period
// and keeps the largest reading. It does not reset the kernel's
// high-water mark; a phase's peak is the largest sample taken in it.
type rssSampler struct {
	peak atomic.Int64
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

const rssPeriod = 5 * time.Millisecond

// startRSS starts a sampler; the caller must call stopRSS.
func startRSS() (*rssSampler, error) {
	v, ok := sysmem.CurrentRSSBytes()
	if !ok {
		return nil, fmt.Errorf("resident set size is not readable on this platform")
	}
	s := &rssSampler{stop: make(chan struct{})}
	s.peak.Store(v)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s, nil
}

func (s *rssSampler) sample() {
	v, ok := sysmem.CurrentRSSBytes()
	for ok {
		old := s.peak.Load()
		if v <= old || s.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset starts a new phase: the peak restarts from the current reading.
func (s *rssSampler) reset() {
	if v, ok := sysmem.CurrentRSSBytes(); ok {
		s.peak.Store(v)
	}
}

// read takes one more sample and returns the phase's peak.
func (s *rssSampler) read() int64 {
	s.sample()
	return s.peak.Load()
}

// stopRSS stops the sampler, waits for it, and returns its peak. It may
// be called more than once.
func (s *rssSampler) stopRSS() int64 {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
	return s.read()
}

// rounds runs round once unmeasured, so that caches fill and lazy
// set-up finishes, then calls begin and repeats round for d, at least
// twice, with i counting from 0. The warm-up round's samples go to a
// scratch set and are dropped.
func rounds(d time.Duration, s samples, begin func(), round func(i int, s samples) error) error {
	if err := round(-1, samples{}); err != nil {
		return err
	}
	begin()
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < d; i++ {
		if err := round(i, s); err != nil {
			return err
		}
	}
	return nil
}

// setupRuns is how often a phase's set-up is repeated; its set-up time
// is the median.
const setupRuns = 5

// repeatSetup runs setup setupRuns times and returns the median CPU and
// the median wall time of the calls. Each call replaces what the one
// before it made.
func repeatSetup(r *run, name string, setup func() error) (timing, error) {
	s := samples{}
	for i := 0; i < setupRuns; i++ {
		d, err := timeCall(r.cpu, setup)
		if err != nil {
			return timing{}, fmt.Errorf("%s set-up: %w", name, err)
		}
		s.addTiming("setup_s", d)
		fmt.Fprintf(r.log, "perfbench: %s set-up %d took %.3f s of CPU, %.3f s of wall time\n", name, i+1, d.cpu, d.wall)
	}
	return timing{s.median("setup_s"), s.median("wall.setup_s")}, nil
}

// memDelta reports what the allocator did between two readings.
type memDelta struct {
	allocBytes uint64
	mallocs    uint64
	numGC      uint32
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{allocBytes: b.TotalAlloc - a.TotalAlloc, mallocs: b.Mallocs - a.Mallocs, numGC: b.NumGC - a.NumGC}
}
