package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format 0.0.4). WritePrometheus renders
// the registry as the plain-text format a Prometheus server (or the
// planned vortexd scraper) ingests: counters as <name>_total, gauges
// verbatim, histograms as cumulative le-buckets with _sum/_count plus
// p50/p90/p99 quantile gauges. Dotted registry names map to underscored
// exposition names (hw.circuit.read_ns -> hw_circuit_read_ns); any
// character outside [a-zA-Z0-9_:] becomes '_'. The raw registry name
// rides in each family's # HELP text, escaped as the format requires.

// sanitizeMetricName maps a registry name to a legal Prometheus metric
// name.
func sanitizeMetricName(s string) string {
	if s == "" {
		return "_"
	}
	b := []byte(s)
	for i, c := range b {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			b[i] = '_'
		}
	}
	return string(b)
}

// helpEscaper escapes # HELP text: a raw newline in a registry name
// would otherwise end the comment and start a malformed line.
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// bucketUpper returns the inclusive upper bound of a (non-sentinel)
// histogram bucket — the le value of its cumulative Prometheus bucket.
func bucketUpper(idx int) float64 {
	idx--
	exp := histMinExp + idx/histSubs
	sub := idx % histSubs
	return math.Ldexp(1+float64(sub+1)/histSubs, exp-1)
}

// WritePrometheus renders every metric in the registry in the
// Prometheus text exposition format, names sorted, one # HELP/# TYPE
// pair per family. It is safe to call concurrently with recording; the
// values are a live read, not an atomic cross-metric snapshot.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	counters := make([]string, 0, len(r.counters))
	for n := range r.counters {
		counters = append(counters, n)
	}
	gauges := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		gauges = append(gauges, n)
	}
	hists := make([]string, 0, len(r.hists))
	for n := range r.hists {
		hists = append(hists, n)
	}
	cByName := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		cByName[n] = c
	}
	gByName := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gByName[n] = g
	}
	hByName := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hByName[n] = h
	}
	r.mu.RUnlock()
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(hists)

	bw := bufio.NewWriter(w)
	for _, n := range counters {
		name := sanitizeMetricName(n) + "_total"
		fmt.Fprintf(bw, "# HELP %s counter %s\n# TYPE %s counter\n%s %d\n",
			name, helpEscaper.Replace(n), name, name, cByName[n].Value())
	}
	for _, n := range gauges {
		name := sanitizeMetricName(n)
		fmt.Fprintf(bw, "# HELP %s gauge %s\n# TYPE %s gauge\n%s %s\n",
			name, helpEscaper.Replace(n), name, name, promFloat(gByName[n].Value()))
	}
	for _, n := range hists {
		writePromHistogram(bw, sanitizeMetricName(n), helpEscaper.Replace(n), hByName[n])
	}
	return bw.Flush()
}

// writePromHistogram renders one histogram family: the cumulative
// le-buckets (only octave buckets that hold samples, plus +Inf, so the
// 1026-slot internal geometry does not bloat the exposition),
// _sum/_count, and quantile gauges as separate _p50/_p90/_p99 families.
func writePromHistogram(w io.Writer, name, help string, h *Histogram) {
	fmt.Fprintf(w, "# HELP %s histogram %s (ns for _ns series)\n# TYPE %s histogram\n", name, help, name)
	// Underflow observations (v <= 0, NaN) are <= every finite bound, so
	// they seed the cumulative count; overflow only reaches +Inf.
	cum := h.buckets[bucketUnder].Load()
	for i := 1; i < histBuckets-1; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, promFloat(bucketUpper(i)), cum)
	}
	count := h.Count()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, count)
	fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(math.Float64frombits(h.sumBits.Load())))
	fmt.Fprintf(w, "%s_count %d\n", name, count)
	for _, q := range [...]struct {
		suffix string
		q      float64
	}{{"_p50", 0.50}, {"_p90", 0.90}, {"_p99", 0.99}} {
		qn := name + q.suffix
		fmt.Fprintf(w, "# HELP %s gauge %s quantile %g\n# TYPE %s gauge\n%s %s\n",
			qn, help, q.q, qn, qn, promFloat(h.Quantile(q.q)))
	}
}

// promFloat renders a float64 the way the exposition format expects
// (+Inf/-Inf/NaN spelled out, shortest round-trip otherwise).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ValidatePrometheus is a minimal line-format validator for the text
// exposition format: every line must be blank, a well-formed # HELP /
// # TYPE comment with a legal metric name (TYPE additionally one of the
// known metric types, at most one per family), or a sample line whose
// metric name is legal, whose optional {label="value"} block is
// balanced and quoted, and whose value parses as a float. It returns
// the first offending line wrapped in an error, nil when the payload is
// clean.
func ValidatePrometheus(b []byte) error {
	types := map[string]bool{}
	for ln, line := range strings.Split(string(b), "\n") {
		if err := validatePromLine(line, types); err != nil {
			return fmt.Errorf("prometheus line %d: %w (%q)", ln+1, err, line)
		}
	}
	return nil
}

// validatePromLine checks one exposition line; types tracks # TYPE
// declarations for the one-per-family rule.
func validatePromLine(line string, types map[string]bool) error {
	if line == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		fields := strings.SplitN(line, " ", 4)
		if len(fields) < 3 || fields[0] != "#" || (fields[1] != "HELP" && fields[1] != "TYPE") {
			return fmt.Errorf("malformed comment")
		}
		if !legalMetricName(fields[2]) {
			return fmt.Errorf("illegal metric name %q", fields[2])
		}
		if fields[1] == "TYPE" {
			if len(fields) != 4 {
				return fmt.Errorf("TYPE needs a type")
			}
			switch fields[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("unknown type %q", fields[3])
			}
			if types[fields[2]] {
				return fmt.Errorf("duplicate TYPE for %q", fields[2])
			}
			types[fields[2]] = true
		}
		return nil
	}
	rest := line
	end := strings.IndexAny(rest, "{ ")
	if end <= 0 {
		return fmt.Errorf("missing value")
	}
	if !legalMetricName(rest[:end]) {
		return fmt.Errorf("illegal metric name %q", rest[:end])
	}
	rest = rest[end:]
	if rest[0] == '{' {
		close := strings.Index(rest, "}")
		if close < 0 {
			return fmt.Errorf("unterminated label block")
		}
		if err := validateLabels(rest[1:close]); err != nil {
			return err
		}
		rest = rest[close+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("want value [timestamp]")
	}
	if _, err := parsePromValue(fields[0]); err != nil {
		return fmt.Errorf("bad value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return nil
}

// validateLabels checks the inside of a {…} label block.
func validateLabels(s string) error {
	if s == "" {
		return nil
	}
	for _, pair := range splitLabels(s) {
		eq := strings.Index(pair, "=")
		if eq <= 0 {
			return fmt.Errorf("label without '=' in %q", pair)
		}
		if !legalMetricName(pair[:eq]) {
			return fmt.Errorf("illegal label name %q", pair[:eq])
		}
		v := pair[eq+1:]
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return fmt.Errorf("unquoted label value %q", v)
		}
	}
	return nil
}

// splitLabels splits a label block on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// parsePromValue parses an exposition sample value.
func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// legalMetricName reports whether s is a legal metric/label name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func legalMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}
