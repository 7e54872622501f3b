package obs

import (
	"bytes"
	"math"
	"testing"
)

// FuzzValidatePrometheus checks two properties of the exposition
// validator: it never panics on arbitrary bytes, and it accepts every
// payload WritePrometheus renders. The second property is exercised on
// registries seeded from the fuzz input: one counter, gauge and
// histogram whose names share an arbitrary root, recording arbitrary
// values.
func FuzzValidatePrometheus(f *testing.F) {
	seed := NewRegistry()
	seed.Counter("hw.circuit.reads").Add(42)
	seed.Gauge("fleet.array0.health").Set(0.75)
	for i := 1; i <= 100; i++ {
		seed.Histogram("span.trial").Record(float64(i))
	}
	var buf bytes.Buffer
	if err := seed.WritePrometheus(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), "hw.circuit.read_ns", int64(3), 1.5)
	f.Add([]byte("x{a=\"1\",b=\"2\"} 3 1700000000\n"), "", int64(0), 0.0)
	f.Add([]byte("# TYPE x counter\n# TYPE x counter\n"), "9starts.with.digit", int64(-1), math.Inf(1))
	f.Add([]byte("x{a=\"unterminated 1\n"), "weird-chars (50%)", int64(1<<40), math.NaN())
	f.Add([]byte("# HELP\n"), "line\nbreak\\slash", int64(7), -2.0)
	f.Fuzz(func(t *testing.T, payload []byte, name string, n int64, v float64) {
		_ = ValidatePrometheus(payload)

		r := NewRegistry()
		r.Counter(name + ".c").Add(n)
		r.Gauge(name + ".g").Set(v)
		h := r.Histogram(name + ".h")
		h.Record(v)
		h.Record(float64(n))
		var out bytes.Buffer
		if err := r.WritePrometheus(&out); err != nil {
			t.Fatal(err)
		}
		if err := ValidatePrometheus(out.Bytes()); err != nil {
			t.Fatalf("root %q: own exposition fails validation: %v\n%s", name, err, out.String())
		}
	})
}
