// Command vortexbench is the repository's benchmark. It runs one of four
// workloads in-process — two Monte-Carlo sweeps from the paper
// reproduction and two vortexd serving loads — checks the program's
// outputs, and prints the workload's metrics. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with the
// benchmark's tracing off; with -trace 1 a separate traced run records
// spans around every call into a layer and reports the per-layer
// metrics. README.md lists every workload and metric with its reason.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload serve-quick --seed 42 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"vortex/internal/mat"
)

// runCfg is what every workload receives.
type runCfg struct {
	seed   uint64
	budget time.Duration // the measured phase's length
	trace  bool
	out    string // directory for span files; "" writes none
	tiny   bool   // smoke-test sizes (tests only)
	log    io.Writer
}

// report is one workload run's outcome.
type report struct {
	attempted, failed int64
	mismatches        []string           // output-check failures
	metrics           map[string]float64 // end-to-end or per-layer, by name
	manifest          map[string]any     // sizes and sample counts
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, manifest: map[string]any{}}
}

// mismatch records a failed output check.
func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// workload is one named benchmark input.
type workload struct {
	name string
	run  func(ctx context.Context, c runCfg) (*report, error)
}

var workloads = []workload{
	{"ensemble", runEnsemble},
	{"train-ir", runTrainIR},
	{"serve-quick", func(ctx context.Context, c runCfg) (*report, error) { return runServe(ctx, c, "quick") }},
	{"serve-full", func(ctx context.Context, c runCfg) (*report, error) { return runServe(ctx, c, "full") }},
}

// endToEnd lists the end-to-end metrics (untraced runs) with their
// units; perLayer the traced run's. Every workload reports every name.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"mem_peak_mb", "MiB"},
	{"ok_ratio", "ratio"},
	{"accuracy", "ratio"},
	{"throughput_rps", "1/s"},
	{"lat_p50_ms", "ms"},
	{"open_p50_ms", "ms"},
	{"max_rate_rps", "1/s"},
}

var perLayer = []metricDef{
	{"hw.fabricate_s", "s"},
	{"ncs.program_s", "s"},
	{"ncs.evaluate_s", "s"},
	{"mat.mulvec_lanes_ns", "ns"},
	{"mat.mulvec_lanes_bytes", "B"},
	{"experiment.vec_ratio", "ratio"},
	{"experiment.vec_fallbacks", "count"},
	{"train.cld_s", "s"},
	{"train.cld_pulses", "count"},
	{"hw.program_s", "s"},
	{"irdrop.program_voltage_us", "us"},
	{"core.vortex_s", "s"},
	{"train.selftune_s", "s"},
	{"dataset.gen_s", "s"},
	{"fleet.read_us", "us"},
	{"fleet.reads", "count"},
	{"serve.batch_size_mean", "count"},
	{"serve.nonengine_us", "us"},
	{"serve.engine_share", "ratio"},
	{"cpu_util", "ratio"},
	{"cpu_us_per_req", "us"},
	{"serve.rejected", "count"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"trace.coverage", "ratio"},
}

type metricDef struct{ name, unit string }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vortexbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload: ensemble, train-ir, serve-quick, serve-full or all")
	seed := fs.Uint64("seed", 42, "input seed")
	secs := fs.Int("seconds", 25, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := fs.String("out", "", "directory for span files and manifests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) || *seed == 0 {
		fmt.Fprintln(stderr, "vortexbench: need -seconds >= 1, -trace 0|1 and a non-zero -seed")
		return 2
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "vortexbench: unknown workload %q\n", *name)
		return 2
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	final := resultLine{Correct: true, Metrics: map[string]metricOut{}}
	for _, w := range todo {
		c := runCfg{seed: *seed, budget: time.Duration(*secs) * time.Second,
			trace: *trace == 1, out: *out, log: stderr}
		start := time.Now()
		rep, err := w.run(context.Background(), c)
		if err != nil {
			fmt.Fprintf(stderr, "vortexbench: %s: %v\n", w.name, err)
			return 1
		}
		rep.manifest["workload"] = w.name
		rep.manifest["wall_s"] = time.Since(start).Seconds()
		addManifest(rep.manifest, *seed, *trace)
		mj, err := json.Marshal(rep.manifest)
		if err != nil {
			fmt.Fprintf(stderr, "vortexbench: %s: manifest: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "manifest %s\n", mj)
		if *out != "" {
			if err := os.WriteFile(filepath.Join(*out, "manifest-"+w.name+".json"), mj, 0o644); err != nil {
				fmt.Fprintf(stderr, "vortexbench: %v\n", err)
			}
		}
		for _, m := range rep.mismatches {
			fmt.Fprintf(stderr, "vortexbench: %s: OUTPUT MISMATCH: %s\n", w.name, m)
		}
		if len(rep.mismatches) > 0 {
			final.Correct = false
		}
		final.Attempted += rep.attempted
		final.Failed += rep.failed
		fmt.Fprintf(stdout, "%s metrics:\n", w.name)
		for _, d := range defs {
			v, ok := rep.metrics[d.name]
			if !ok && c.trace {
				// The layer is not on this workload's path: it did no work.
				v, ok = 0, true
			}
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Fprintf(stderr, "vortexbench: %s: metric %s not measured\n", w.name, d.name)
				return 1
			}
			fmt.Fprintf(stdout, "  %-26s %16.6f %s\n", d.name, v, d.unit)
			key := d.name
			if len(todo) > 1 {
				key = w.name + "." + d.name
			}
			final.Metrics[key] = metricOut{Value: v, Unit: d.unit}
		}
	}
	if final.Attempted < 1 {
		fmt.Fprintln(stderr, "vortexbench: nothing was attempted")
		return 1
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "vortexbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 3
	}
	return 0
}

// addManifest records what a result was measured on.
func addManifest(m map[string]any, seed uint64, trace int) {
	m["seed"] = seed
	m["trace"] = trace
	m["commit"] = commit()
	m["go"] = runtime.Version()
	m["gomaxprocs"] = runtime.GOMAXPROCS(0)
	m["nproc"] = runtime.NumCPU()
	m["kernel_isa"] = mat.KernelISA()
	m["goos_goarch"] = runtime.GOOS + "/" + runtime.GOARCH
}

// commit returns the source revision the build stamped, "unknown"
// when the tree was not a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// writeSpans writes the tracer's spans to <out>/trace-<workload>.jsonl.
func writeSpans(c runCfg, workload string, t *tracer) error {
	if c.out == "" || t == nil {
		return nil
	}
	return t.writeFile(filepath.Join(c.out, "trace-"+workload+".jsonl"))
}

// stripFooter removes a trailing "[<id> in <duration>]" timing line
// from rendered runner output, leaving only the result rows.
func stripFooter(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for len(lines) > 0 && strings.HasPrefix(lines[len(lines)-1], "[") {
		lines = lines[:len(lines)-1]
	}
	return strings.Join(lines, "\n") + "\n"
}
