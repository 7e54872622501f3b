package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	s := sample{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{
		{0.2, 1}, {0.5, 3}, {0.6, 3}, {0.61, 4}, {0.99, 5}, {1, 5},
	} {
		if got := s.quantile(tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(sample(nil).median()) {
		t.Error("median of no samples should be NaN")
	}
	if s[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want bool
	}{{0, false}, {100, false}, {999, false}, {1000, true}, {5000, true}} {
		if got := resolved(0.99, tc.n); got != tc.want {
			t.Errorf("resolved(0.99, %d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// The median of 20 samples has ten beyond it, of 19 only nine.
	if !resolved(0.5, 20) || resolved(0.5, 19) {
		t.Error("median resolution boundary wrong")
	}
}

func TestRatio(t *testing.T) {
	if ratio(1, 4) != 0.25 || ratio(3, 0) != 0 {
		t.Errorf("ratio(1,4)=%v ratio(3,0)=%v", ratio(1, 4), ratio(3, 0))
	}
	if m := (sample{1, 2, 3, 6}).mean(); m != 3 {
		t.Errorf("mean = %v", m)
	}
}

func TestCoveredUnion(t *testing.T) {
	iv := [][2]int64{{5, 8}, {0, 2}, {1, 3}, {7, 12}}
	// Union inside [0, 10]: [0,3] + [5,10] = 8.
	if got := covered(iv, 0, 10); got != 8 {
		t.Errorf("covered = %d, want 8", got)
	}
	if covered(nil, 0, 10) != 0 {
		t.Error("no children should cover nothing")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	base := tr.t0
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	tr.record("root", noSpan, at(0), at(100))
	tr.record("a", 0, at(10), at(40))
	tr.record("a", 0, at(30), at(50)) // overlaps the first child
	tr.record("b", 0, at(60), at(70))
	tr.record("leaf", 3, at(62), at(65))
	lt := tr.selfTimes()
	want := map[string]time.Duration{
		"root": 50 * time.Millisecond, // 100 - union(10..50, 60..70)
		"a":    50 * time.Millisecond,
		"b":    7 * time.Millisecond,
		"leaf": 3 * time.Millisecond,
	}
	for name, w := range want {
		if got := self(lt, name); got != w {
			t.Errorf("self(%s) = %v, want %v", name, got, w)
		}
	}
	var nilTracer *tracer
	if id := nilTracer.start("x", noSpan); id != noSpan {
		t.Error("nil tracer returned a span id")
	}
	nilTracer.end(0)
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(1000, 2*time.Second, 7)
	b := poissonSchedule(1000, 2*time.Second, 7)
	c := poissonSchedule(1000, 2*time.Second, 8)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == len(c) && a[0] == c[0] {
		t.Error("different seeds gave the same schedule")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals at 1000/s over 2 s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("arrival %d out of order or past the end: %v", i, a[i])
		}
	}
	if scheduleSeed(1, 1000) == scheduleSeed(1, 2000) || scheduleSeed(1, 1000) != scheduleSeed(1, 1000) {
		t.Error("schedule seeds must be distinct per rate and stable")
	}
}

func TestStripFooter(t *testing.T) {
	in := "a,b\n1,2\n[table1 in 2.3s]\n\n"
	if got := stripFooter(in); got != "a,b\n1,2\n" {
		t.Errorf("stripFooter = %q", got)
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each reports every metric and passes its output checks.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				if testing.Short() && (w.name == "serve-full" || w.name == "train-ir") {
					t.Skip("trains a full-scale fleet or runs table1")
				}
				c := runCfg{seed: 42, budget: 600 * time.Millisecond, trace: traced,
					tiny: true, log: io.Discard}
				rep, err := w.run(context.Background(), c)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.mismatches) > 0 {
					t.Fatalf("output checks failed: %v", rep.mismatches)
				}
				if rep.attempted < 1 || rep.failed != 0 {
					t.Fatalf("attempted %d, failed %d", rep.attempted, rep.failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					v, ok := rep.metrics[d.name]
					// A 180 ms rate search of 50 ms steps may find no
					// passing rate, so max_rate_rps may read 0 here.
					positive := v > 0 || (d.name == "max_rate_rps" && v == 0)
					if !traced && (!ok || !positive) {
						t.Errorf("end-to-end metric %s = %v (present %v), want > 0", d.name, v, ok)
					}
					if ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
						t.Errorf("metric %s = %v", d.name, v)
					}
				}
			})
		}
	}
}

// TestRunPrintsResultLine drives the command line end to end on the
// cheapest workload and checks the final JSON line's shape.
func TestRunPrintsResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Full-scale ensemble")
	}
	var out, errb bytes.Buffer
	code := run([]string{"-workload", "ensemble", "-seconds", "1", "-trace", "0"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s missing or wrong unit: %+v", d.name, m)
		}
	}
	if code := run([]string{"-workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
