// Package benchfmt is the shared model of the repo's archived benchmark
// documents: `go test -bench` text parsed into a stable JSON shape
// (cmd/benchjson writes it, BENCH_engine.json stores it) plus the
// regression comparison cmd/benchcheck gates CI with.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line, or the median of a benchmark's
// repeated lines.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	// Min and Max hold each metric's smallest and largest sample when
	// the benchmark ran more than once (-count N): the spread the
	// median in Metrics was taken from.
	Min map[string]float64 `json:"min,omitempty"`
	Max map[string]float64 `json:"max,omitempty"`
}

// Doc is one archived benchmark run: the non-benchmark header lines
// (goos/goarch/pkg/cpu, plus whatever the writer injects — git commit,
// engine version, GOMAXPROCS) in Context, one Result per benchmark.
type Doc struct {
	Context map[string]string `json:"context"`
	Results []Result          `json:"results"`
}

// ParseLine parses one `BenchmarkX  N  v unit  v unit...` line.
func ParseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: n, Metrics: map[string]float64{}}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

// Parse converts `go test -bench` text output into a Doc. Benchmark
// lines become Results; "key: value" header lines (goos, goarch, pkg,
// cpu) land in Context; everything else (PASS/ok trailers) is dropped.
// A benchmark repeated under -count N collapses to one Result, in order
// of first appearance, carrying the median of each metric and of the
// iteration counts, with each metric's smallest and largest sample in
// Min and Max.
func Parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Context: map[string]string{}, Results: []Result{}}
	samples := map[string][]Result{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if res, ok := ParseLine(line); ok {
			if samples[res.Name] == nil {
				order = append(order, res.Name)
			}
			samples[res.Name] = append(samples[res.Name], res)
			continue
		}
		if k, v, ok := strings.Cut(line, ":"); ok && !strings.Contains(k, " ") && v != "" {
			doc.Context[strings.TrimSpace(k)] = strings.TrimSpace(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchfmt: parse: %w", err)
	}
	for _, name := range order {
		doc.Results = append(doc.Results, medianResult(samples[name]))
	}
	return doc, nil
}

// medianResult collapses one benchmark's samples: every metric, and the
// iteration count, becomes its median over the samples that carry it;
// Min and Max keep each metric's extremes.
func medianResult(rs []Result) Result {
	if len(rs) == 1 {
		return rs[0]
	}
	iters := make([]float64, len(rs))
	vals := map[string][]float64{}
	for i, r := range rs {
		iters[i] = float64(r.Iterations)
		for k, v := range r.Metrics {
			vals[k] = append(vals[k], v)
		}
	}
	out := Result{Name: rs[0].Name, Iterations: int64(median(iters)), Metrics: map[string]float64{},
		Min: map[string]float64{}, Max: map[string]float64{}}
	for k, v := range vals {
		out.Metrics[k] = median(v) // sorts v
		out.Min[k], out.Max[k] = v[0], v[len(v)-1]
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ReadFile loads a JSON benchmark document.
func ReadFile(path string) (*Doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	var doc Doc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("benchfmt: decode %s: %w", path, err)
	}
	return &doc, nil
}

// GOMAXPROCS returns the GOMAXPROCS the document's benchmarks ran at, as
// their names record it: `go test` appends a -N suffix when GOMAXPROCS is
// N > 1 and none at 1. Distinct values (a -cpu list) are joined with
// commas in order of first appearance; a document without results
// yields "".
func (d *Doc) GOMAXPROCS() string {
	var procs []string
	seen := map[string]bool{}
	for _, r := range d.Results {
		p := "1"
		if i := strings.LastIndexByte(r.Name, '-'); i >= 0 {
			if n, err := strconv.Atoi(r.Name[i+1:]); err == nil && n > 0 {
				p = strconv.Itoa(n)
			}
		}
		if !seen[p] {
			seen[p] = true
			procs = append(procs, p)
		}
	}
	return strings.Join(procs, ",")
}

// Encode renders the document as indented JSON with a trailing newline.
func (d *Doc) Encode() ([]byte, error) {
	enc, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("benchfmt: encode: %w", err)
	}
	return append(enc, '\n'), nil
}

// Result returns the named benchmark's entry, or nil.
func (d *Doc) Result(name string) *Result {
	for i := range d.Results {
		if d.Results[i].Name == name {
			return &d.Results[i]
		}
	}
	return nil
}

// Delta is one benchmark's baseline-vs-current comparison on a metric.
type Delta struct {
	Name      string
	Base      float64
	Current   float64
	Ratio     float64 // Current / Base
	Regressed bool
	// BaseRange and CurRange render each side's sample spread ("lo..hi"),
	// or "" when that document holds a single sample.
	BaseRange string
	CurRange  string
}

// Change renders the relative change as a signed percentage.
func (d Delta) Change() string {
	return fmt.Sprintf("%+.1f%%", (d.Ratio-1)*100)
}

// rangeString renders the metric's sample spread, or "" when the entry
// holds a single sample.
func (r *Result) rangeString(metric string) string {
	lo, okLo := r.Min[metric]
	hi, okHi := r.Max[metric]
	if !okLo || !okHi {
		return ""
	}
	return fmt.Sprintf("%g..%g", lo, hi)
}

// Compare diffs every baseline benchmark carrying the metric against the
// current run. With higherBetter (throughput metrics like sim-instrs/s)
// a Delta regresses when current falls more than tolerance below
// baseline; otherwise (latency metrics like ns/op) when it rises more
// than tolerance above. Benchmarks absent from the current run, or a
// metric absent from every baseline entry, are reported as errors — a
// gate that silently compares nothing is worse than no gate.
func Compare(base, cur *Doc, metric string, tolerance float64, higherBetter bool) ([]Delta, error) {
	var deltas []Delta
	var missing []string
	for _, b := range base.Results {
		bv, ok := b.Metrics[metric]
		if !ok {
			continue
		}
		c := cur.Result(b.Name)
		if c == nil {
			missing = append(missing, b.Name)
			continue
		}
		cv, ok := c.Metrics[metric]
		if !ok {
			missing = append(missing, b.Name)
			continue
		}
		if bv == 0 {
			return nil, fmt.Errorf("benchfmt: baseline %s has zero %s", b.Name, metric)
		}
		d := Delta{Name: b.Name, Base: bv, Current: cv, Ratio: cv / bv,
			BaseRange: b.rangeString(metric), CurRange: c.rangeString(metric)}
		if higherBetter {
			d.Regressed = d.Ratio < 1-tolerance
		} else {
			d.Regressed = d.Ratio > 1+tolerance
		}
		deltas = append(deltas, d)
	}
	if len(deltas) == 0 {
		return nil, fmt.Errorf("benchfmt: no baseline benchmark carries metric %q", metric)
	}
	if missing != nil {
		return deltas, fmt.Errorf("benchfmt: current run is missing %s for: %s",
			metric, strings.Join(missing, ", "))
	}
	return deltas, nil
}
