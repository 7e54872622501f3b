package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported as resolved: a p99 needs at least 1,000 samples.
const minTail = 10

// sample is a set of measurements of one quantity.
type sample []float64

// sorted returns a sorted copy.
func (s sample) sorted() sample {
	c := append(sample(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1): the
// smallest sample with at least a q share of the samples at or below
// it. NaN for an empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := s.sorted()
	return c[rank(q, len(c))]
}

// rank is the zero-based nearest-rank index of the q-quantile of n
// sorted samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// resolved reports whether the q-quantile of n samples has at least
// minTail samples beyond it.
func resolved(q float64, n int) bool {
	return n > 0 && n-1-rank(q, n) >= minTail
}

// median is the nearest-rank median.
func (s sample) median() float64 { return s.quantile(0.5) }

// mean is the arithmetic mean, NaN when empty.
func (s sample) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// ratio is num/den, 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// seconds converts durations to a sample of seconds.
func seconds(ds []time.Duration) sample {
	s := make(sample, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	return s
}

// millis converts durations to a sample of milliseconds.
func millis(ds []time.Duration) sample {
	s := make(sample, len(ds))
	for i, d := range ds {
		s[i] = float64(d) / 1e6
	}
	return s
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssEvery is how often watchRSS samples the resident set.
const rssEvery = 2 * time.Millisecond

// rssMB is the process's current resident set size in MiB, read from
// /proc/self/statm; where that is unreadable, the peak so far.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	return peakRSSMB()
}

// rssWatch samples the resident set while one call runs.
type rssWatch struct {
	stop, done chan struct{}
	peak       float64
}

// watchRSS returns memory the runtime holds but does not use to the OS,
// so the call starts from its own baseline, and samples the resident
// set every rssEvery until end.
func watchRSS() *rssWatch {
	debug.FreeOSMemory()
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{}), peak: rssMB()}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.peak = max(w.peak, rssMB())
			}
		}
	}()
	return w
}

// end stops the sampling and returns the call's peak resident set.
func (w *rssWatch) end() float64 {
	close(w.stop)
	<-w.done
	return max(w.peak, rssMB())
}

// cpuMeter measures process CPU against wall time over one phase.
type cpuMeter struct {
	cpu  time.Duration
	wall time.Time
}

func startCPU() cpuMeter { return cpuMeter{cpu: cpuTime(), wall: time.Now()} }

// stop returns the CPU time used and the wall time elapsed since start.
func (m cpuMeter) stop() (cpu, wall time.Duration) {
	return cpuTime() - m.cpu, time.Since(m.wall)
}

// gomaxprocs is the number of OS threads running Go code at once.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
