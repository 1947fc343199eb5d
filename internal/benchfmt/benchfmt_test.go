package benchfmt

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkEngineStep-8   	 1000000	      1052 ns/op	        16.50 instrs/step	 950000 sim-instrs/s
BenchmarkRunRFHome-8    	       3	 712345678 ns/op	1234567 sim-instrs/s
PASS
ok  	repro	4.123s
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Context["goos"] != "linux" || doc.Context["cpu"] != "AMD EPYC 7B13" {
		t.Fatalf("context: %v", doc.Context)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("results: %d, want 2", len(doc.Results))
	}
	r := doc.Result("BenchmarkEngineStep-8")
	if r == nil {
		t.Fatal("EngineStep missing")
	}
	if r.Iterations != 1000000 || r.Metrics["ns/op"] != 1052 ||
		r.Metrics["instrs/step"] != 16.5 || r.Metrics["sim-instrs/s"] != 950000 {
		t.Fatalf("EngineStep: %+v", r)
	}
	// PASS / ok trailers must not leak into context or results.
	if _, ok := doc.Context["ok"]; ok {
		t.Fatalf("trailer leaked into context: %v", doc.Context)
	}
	if doc.Result("PASS") != nil {
		t.Fatal("trailer parsed as result")
	}
}

// TestParseMedianOfRepeats: a benchmark run under -count N appears N
// times; Parse keeps one entry per name, in first-appearance order, with
// the median of each metric and of the iteration counts.
func TestParseMedianOfRepeats(t *testing.T) {
	const in = `BenchmarkA 100 10 ns/op 300 sim-instrs/s
BenchmarkB 7 1 ns/op
BenchmarkA 300 30 ns/op 100 sim-instrs/s
BenchmarkA 200 20 ns/op 900 sim-instrs/s
BenchmarkB 9 3 ns/op
PASS
`
	doc, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 2 || doc.Results[0].Name != "BenchmarkA" || doc.Results[1].Name != "BenchmarkB" {
		t.Fatalf("results: %+v, want one A then one B", doc.Results)
	}
	a := doc.Results[0]
	if a.Iterations != 200 || a.Metrics["ns/op"] != 20 || a.Metrics["sim-instrs/s"] != 300 {
		t.Fatalf("A (odd count): %+v, want iterations 200, 20 ns/op, 300 sim-instrs/s", a)
	}
	b := doc.Results[1]
	if b.Iterations != 8 || b.Metrics["ns/op"] != 2 {
		t.Fatalf("B (even count): %+v, want the mean of the two middle samples", b)
	}
	// The spread survives beside the median, and through a JSON round trip.
	if lo, hi := a.Min["sim-instrs/s"], a.Max["sim-instrs/s"]; lo != 100 || hi != 900 {
		t.Fatalf("A sim-instrs/s range = %g..%g, want 100..900", lo, hi)
	}
	if lo, hi := b.Min["ns/op"], b.Max["ns/op"]; lo != 1 || hi != 3 {
		t.Fatalf("B ns/op range = %g..%g, want 1..3", lo, hi)
	}
	enc, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var back Doc
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if r := back.Results[0]; r.Min["ns/op"] != 10 || r.Max["ns/op"] != 30 {
		t.Fatalf("round-tripped A ns/op range = %g..%g, want 10..30", r.Min["ns/op"], r.Max["ns/op"])
	}
	deltas, err := Compare(doc, &back, "sim-instrs/s", 0.15, true)
	if err != nil || len(deltas) != 1 || deltas[0].BaseRange != "100..900" || deltas[0].CurRange != "100..900" {
		t.Fatalf("Compare ranges: %+v, %v", deltas, err)
	}
}

// A single sample carries no spread: no min/max keys in its JSON, and no
// range in a comparison.
func TestSingleSampleHasNoRange(t *testing.T) {
	doc, err := Parse(strings.NewReader("BenchmarkA 100 10 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if deltas, err := Compare(doc, doc, "ns/op", 0.15, false); err != nil || deltas[0].BaseRange != "" || deltas[0].CurRange != "" {
		t.Fatalf("single-sample comparison: %+v, %v", deltas, err)
	}
	enc, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(enc), `"min"`) || strings.Contains(string(enc), `"max"`) {
		t.Fatalf("single-sample JSON carries a spread:\n%s", enc)
	}
}

func TestParseLineRejects(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"ok  	repro	4.123s",
		"Benchmark",                     // no fields
		"BenchmarkX notanint 5 ns/op",   // bad iteration count
		"BenchmarkX 10 notafloat ns/op", // bad value
		"goos: linux",
	} {
		if _, ok := ParseLine(line); ok {
			t.Errorf("ParseLine(%q) accepted", line)
		}
	}
}

func mkdoc(vals map[string]float64) *Doc {
	d := &Doc{Context: map[string]string{}}
	for name, v := range vals {
		d.Results = append(d.Results, Result{
			Name: name, Iterations: 1,
			Metrics: map[string]float64{"sim-instrs/s": v},
		})
	}
	return d
}

func TestCompareHigherBetter(t *testing.T) {
	base := mkdoc(map[string]float64{"A": 100, "B": 100, "C": 100})
	cur := mkdoc(map[string]float64{"A": 90, "B": 84, "C": 120})
	deltas, err := Compare(base, cur, "sim-instrs/s", 0.15, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 3 {
		t.Fatalf("deltas: %d", len(deltas))
	}
	got := map[string]bool{}
	for _, d := range deltas {
		got[d.Name] = d.Regressed
	}
	// -10% within tolerance, -16% regressed, +20% (improvement) fine.
	if got["A"] || !got["B"] || got["C"] {
		t.Fatalf("regression flags: %v", got)
	}
}

func TestCompareLowerBetter(t *testing.T) {
	base := mkdoc(map[string]float64{"A": 100, "B": 100})
	cur := mkdoc(map[string]float64{"A": 120, "B": 80})
	deltas, err := Compare(base, cur, "sim-instrs/s", 0.15, false)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, d := range deltas {
		got[d.Name] = d.Regressed
	}
	// For a lower-better metric +20% regresses, -20% improves.
	if !got["A"] || got["B"] {
		t.Fatalf("regression flags: %v", got)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	base := mkdoc(map[string]float64{"A": 100, "B": 100})
	cur := mkdoc(map[string]float64{"A": 100})
	deltas, err := Compare(base, cur, "sim-instrs/s", 0.15, true)
	if err == nil || !strings.Contains(err.Error(), "B") {
		t.Fatalf("err = %v, want missing-B error", err)
	}
	if len(deltas) != 1 || deltas[0].Name != "A" {
		t.Fatalf("partial deltas: %+v", deltas)
	}
}

func TestCompareNoMetricCarrier(t *testing.T) {
	base := mkdoc(map[string]float64{"A": 100})
	cur := mkdoc(map[string]float64{"A": 100})
	if _, err := Compare(base, cur, "widgets/s", 0.15, true); err == nil {
		t.Fatal("want no-carrier error")
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	base := mkdoc(map[string]float64{"A": 0})
	cur := mkdoc(map[string]float64{"A": 100})
	if _, err := Compare(base, cur, "sim-instrs/s", 0.15, true); err == nil {
		t.Fatal("want zero-baseline error")
	}
}

func TestDeltaChange(t *testing.T) {
	if got := (Delta{Ratio: 0.825}).Change(); got != "-17.5%" {
		t.Fatalf("Change() = %q", got)
	}
	if got := (Delta{Ratio: 1.003}).Change(); got != "+0.3%" {
		t.Fatalf("Change() = %q", got)
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	doc.Context["git-commit"] = "deadbeef"
	enc, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if enc[len(enc)-1] != '\n' {
		t.Fatal("missing trailing newline")
	}
	if !strings.Contains(string(enc), `"git-commit": "deadbeef"`) {
		t.Fatalf("context lost:\n%s", enc)
	}
}

// TestGOMAXPROCSFromNames: the context's gomaxprocs comes from the
// benchmarks' -N name suffixes, not from the converting process.
func TestGOMAXPROCSFromNames(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"BenchmarkA 10 5 ns/op\nBenchmarkB 10 5 ns/op\n", "1"},
		{sampleBench, "8"},
		{"BenchmarkA 10 5 ns/op\nBenchmarkA-4 10 5 ns/op\nBenchmarkB-4 10 5 ns/op\n", "1,4"},
		{"BenchmarkCache/ways-x 10 5 ns/op\n", "1"},
		{"PASS\n", ""},
	} {
		doc, err := Parse(strings.NewReader(tc.in))
		if err != nil {
			t.Fatal(err)
		}
		if got := doc.GOMAXPROCS(); got != tc.want {
			t.Errorf("GOMAXPROCS(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
