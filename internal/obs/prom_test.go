package obs

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"hw.circuit.read_ns":   "hw_circuit_read_ns",
		"span.experiment.fig2": "span_experiment_fig2",
		"ok_name:with:colons":  "ok_name:with:colons",
		"9starts.with.digit":   "_starts_with_digit",
		"weird-chars (50%)":    "weird_chars__50__",
		"":                     "_",
	} {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBucketUpperBoundsBucket(t *testing.T) {
	for _, v := range []float64{0.001, 1, 3.7, 1000, 1e9, 2.5e17} {
		idx := bucketIndex(v)
		up := bucketUpper(idx)
		if v > up {
			t.Errorf("value %v above its bucket upper bound %v", v, up)
		}
		if mid := bucketMid(idx); mid > up {
			t.Errorf("bucket %d mid %v above upper %v", idx, mid, up)
		}
	}
}

func TestWritePrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("hw.circuit.reads").Add(42)
	r.Gauge("fleet.array0.health").Set(0.75)
	h := r.Histogram("span.trial")
	for i := 1; i <= 100; i++ {
		h.Record(float64(i))
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := ValidatePrometheus(buf.Bytes()); err != nil {
		t.Fatalf("own exposition fails validation: %v\n%s", err, out)
	}
	for _, want := range []string{
		"hw_circuit_reads_total 42",
		"fleet_array0_health 0.75",
		"span_trial_count 100",
		"span_trial_sum 5050",
		`span_trial_bucket{le="+Inf"} 100`,
		"# TYPE span_trial histogram",
		"# TYPE span_trial_p50 gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets must be non-decreasing and end at the count.
	last, final := -1.0, 0.0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "span_trial_bucket{") {
			continue
		}
		v, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
		if err != nil {
			t.Fatalf("bad bucket line %q", line)
		}
		if v < last {
			t.Fatalf("cumulative bucket decreased: %q after %v", line, last)
		}
		last, final = v, v
	}
	if final != 100 {
		t.Errorf("final cumulative bucket = %v, want 100", final)
	}
}

// TestHistogramQuantileEdgeCases pins the quantile behavior on the
// degenerate shapes: empty, a single sample, every sample in one
// bucket, and sentinel-only (±Inf / NaN) recordings.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	empty := NewHistogram()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}

	single := NewHistogram()
	single.Record(42)
	for _, q := range []float64{0, 0.5, 1} {
		if got := single.Quantile(q); got != 42 {
			t.Errorf("single-sample Quantile(%v) = %v, want exactly 42 (clamped)", q, got)
		}
	}

	oneBucket := NewHistogram()
	for i := 0; i < 1000; i++ {
		oneBucket.Record(100) // all in one sub-bucket
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := oneBucket.Quantile(q); got != 100 {
			t.Errorf("one-bucket Quantile(%v) = %v, want exactly 100", q, got)
		}
	}

	// Quantiles out of range clamp instead of misbehaving.
	if single.Quantile(-1) != 42 || single.Quantile(2) != 42 {
		t.Error("out-of-range q not clamped")
	}

	sentinels := NewHistogram()
	sentinels.Record(math.Inf(1))
	sentinels.Record(math.Inf(-1))
	sentinels.Record(math.NaN())
	sentinels.Record(0)
	if sentinels.Count() != 4 {
		t.Errorf("sentinel count = %d, want 4 (count stays honest)", sentinels.Count())
	}
	for _, q := range []float64{0, 0.5, 1} {
		got := sentinels.Quantile(q)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Errorf("sentinel-only Quantile(%v) = %v, want finite", q, got)
		}
	}
	s := sentinels.Snapshot()
	if math.IsInf(s.Sum, 0) || math.IsNaN(s.Sum) || math.IsInf(s.Max, 0) {
		t.Errorf("sentinel snapshot not finite: %+v", s)
	}

	// A +Inf recording lands in the overflow bucket but must not poison
	// sum/min/max of real samples.
	mixed := NewHistogram()
	mixed.Record(10)
	mixed.Record(math.Inf(1))
	ms := mixed.Snapshot()
	if ms.Count != 2 || ms.Sum != 10 || ms.Min != 10 || ms.Max != 10 {
		t.Errorf("mixed snapshot = %+v, want sum/min/max from the finite sample only", ms)
	}
	if got := mixed.Quantile(0.99); got != 10 {
		t.Errorf("mixed p99 = %v, want clamped to finite max 10", got)
	}
}

// TestWritePrometheusConcurrent renders the exposition while every
// metric kind is being hammered — the data-race check behind serving
// /metrics/prometheus from a live run (run under -race in CI).
func TestWritePrometheusConcurrent(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h").Record(float64(i%1000 + 1))
				i++
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ValidatePrometheus(buf.Bytes()); err != nil {
			t.Fatalf("concurrent exposition invalid: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestValidatePrometheusRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no value",
		"1starts_with_digit 3",
		"name{unterminated 3",
		`name{label=unquoted} 3`,
		"name notafloat",
		"name 3 notatimestamp",
		"# BADCOMMENT name",
		"# TYPE name notatype",
		"# TYPE name counter\n# TYPE name counter",
		"name{=\"v\"} 3",
	} {
		if err := ValidatePrometheus([]byte(bad)); err == nil {
			t.Errorf("validator accepted %q", bad)
		}
	}
	good := "# HELP a_total counter a\n# TYPE a_total counter\na_total 3\n" +
		"b{x=\"y\",z=\"w, with comma\"} 4.5e-3 1700000000\n" +
		"c +Inf\nd NaN\n"
	if err := ValidatePrometheus([]byte(good)); err != nil {
		t.Errorf("validator rejected clean payload: %v", err)
	}
}
