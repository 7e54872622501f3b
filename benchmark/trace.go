package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer holds the benchmark's own spans in memory: one record per call
// the benchmark makes into a layer, with its parent, so layer self time
// can be computed after the run. A nil *tracer records nothing; the
// untraced runs pass nil.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

// spanRec is one finished or open span. Times are nanoseconds since the
// tracer started; end is -1 while the span is open.
type spanRec struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// noSpan is the id returned by a nil tracer and the parent of a root.
const noSpan = -1

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already-timed span.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{Name: name, ID: len(t.spans), Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// span runs fn inside a span and returns fn's error.
func (t *tracer) span(name string, parent int, fn func() error) error {
	id := t.start(name, parent)
	defer t.end(id)
	return fn()
}

// layerTime is one span name's summed self and total time.
type layerTime struct {
	Calls int
	Self  time.Duration
	Total time.Duration
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover (children that
// overlap each other are counted once).
func (t *tracer) selfTimes() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != noSpan && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*layerTime{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Calls++
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(dur - covered(kids[s.ID], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	curS, curE := int64(-1), int64(-1)
	for _, v := range iv {
		s, e := max(v[0], lo), min(v[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			sum += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return sum + curE - curS
}

// self returns the summed self time of one span name, zero when absent.
func self(lt map[string]*layerTime, name string) time.Duration {
	if l := lt[name]; l != nil {
		return l.Self
	}
	return 0
}

// writeTable prints the per-layer self-time table: each span name's
// calls, self time and share of the summed self time.
func writeTable(w io.Writer, workload string, lt map[string]*layerTime) {
	var all time.Duration
	names := make([]string, 0, len(lt))
	for n, l := range lt {
		names = append(names, n)
		all += l.Self
	}
	sort.Slice(names, func(i, j int) bool { return lt[names[i]].Self > lt[names[j]].Self })
	fmt.Fprintf(w, "layer self time, %s (benchmark spans)\n", workload)
	fmt.Fprintf(w, "  %-22s %9s %12s %7s\n", "span", "calls", "self_s", "share")
	for _, n := range names {
		l := lt[n]
		fmt.Fprintf(w, "  %-22s %9d %12.6f %6.1f%%\n", n, l.Calls, l.Self.Seconds(),
			100*ratio(float64(l.Self), float64(all)))
	}
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
