package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.1, 1}, {0.01, 1},
	} {
		if got := percentile(append([]float64(nil), xs...), tc.q); got != tc.want {
			t.Errorf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{1500, 0.99, 15, true},
		{20, 0.5, 10, true},
		{19, 0.5, 9, false},
		{0, 0.99, 0, false},
	} {
		if got := beyond(tc.n, tc.q); got != tc.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.beyond)
		}
		if got := tailOK(tc.n, tc.q); got != tc.ok {
			t.Errorf("tailOK(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.ok)
		}
	}
	// The rule as setEndToEnd applies it: a run short of samples fails a
	// check instead of reporting its p99.
	rep := newReport()
	rep.setEndToEnd([]float64{1}, []slice{{cells: 1, elapsed: time.Second, lat: make([]float64, 999)}})
	if rep.Failed != 1 {
		t.Errorf("999 samples: %d failed checks, want 1", rep.Failed)
	}
	rep = newReport()
	rep.setEndToEnd([]float64{1}, []slice{{cells: 1, elapsed: time.Second, lat: make([]float64, 1000)}})
	if rep.Failed != 0 {
		t.Errorf("1000 samples: %d failed checks, want 0", rep.Failed)
	}
}

func TestEndToEndMedians(t *testing.T) {
	// Three slices: the middle one is a burst. Each slice's 1000 samples
	// make one p99 group.
	mk := func(cells int, v float64) slice {
		lat := make([]float64, 1000)
		for i := range lat {
			lat[i] = v
		}
		lat[len(lat)-1] = 100 * v
		return slice{cells: cells, elapsed: time.Second, lat: lat}
	}
	rep := newReport()
	rep.setEndToEnd([]float64{3, 1, 2}, []slice{mk(10, 1), mk(1, 50), mk(12, 2)})
	for name, want := range map[string]float64{"setup_s": 2, "cells_per_s": 10, "latency_p50_ms": 2, "latency_p99_ms": 2} {
		if got := rep.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestRepeatedFastestRepetitions(t *testing.T) {
	s := time.Second
	// 500 cells on 2 lanes, each slowed 10-fold in its third repetition:
	// the pooled fastest two are 1000 samples, exactly enough for a p99.
	p := newRepeats(2)
	for rep := 0; rep < 3; rep++ {
		lat := make([]float64, 500)
		for i := range lat {
			lat[i] = float64(1 + i%2)
			if rep == 2 {
				lat[i] *= 10
			}
		}
		if !p.latencies(lat) {
			t.Fatalf("repetition %d: cell count rejected", rep)
		}
	}
	if p.latencies(make([]float64, 499)) {
		t.Error("a repetition with a cell missing was accepted")
	}
	// A unit of 20 cells with no latencies, slowed in one repetition.
	for _, d := range []time.Duration{3 * s, 2 * s, 9 * s} {
		p.unit("batch", 20, d)
	}
	rep := newReport()
	rep.setRepeated([]float64{3, 1, 2}, p)
	// 500 cells of 1.5 ms on 2 lanes take 0.375 s; the unit 2.5 s.
	for name, want := range map[string]float64{"setup_s": 2, "cells_per_s": 520 / 2.875, "latency_p50_ms": 1, "latency_p99_ms": 2} {
		if got := rep.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if rep.Failed != 0 {
		t.Errorf("%d failed checks, want 0", rep.Failed)
	}

	// One cell fewer leaves 998 samples: too few for a p99.
	p = newRepeats(2)
	p.latencies(make([]float64, 499))
	p.latencies(make([]float64, 499))
	rep = newReport()
	rep.setRepeated([]float64{1}, p)
	if rep.Failed != 1 {
		t.Errorf("998 samples: %d failed checks, want 1", rep.Failed)
	}
}

func TestZipfDeterministicBySeed(t *testing.T) {
	draw := func(seed int64) []int {
		z := newZipfStream(seed, 6240)
		out := make([]int, 2000)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 draw %d: %d then %d", i, a[i], b[i])
		}
		if a[i] != c[i] {
			same = false
		}
		if a[i] < 0 || a[i] >= 6240 {
			t.Fatalf("draw %d out of range: %d", i, a[i])
		}
	}
	if same {
		t.Error("seeds 7 and 8 drew identical sequences")
	}
	// Zipf: rank 0 is the single most frequent key.
	counts := map[int]int{}
	for _, r := range a {
		counts[r]++
	}
	for r, n := range counts {
		if r != 0 && n > counts[0] {
			t.Errorf("rank %d drawn %d times, more than rank 0's %d", r, n, counts[0])
		}
	}
}

func TestRequestStreamDeterministicBySeed(t *testing.T) {
	combos := outageFree()
	a, b := newReqStream(3, combos), newReqStream(3, combos)
	misses := 0
	for i := 0; i < 5000; i++ {
		x, y := a.next(), b.next()
		if x.req.Workload != y.req.Workload || x.req.Scheme != y.req.Scheme || x.req.Seed != y.req.Seed || x.combo != y.combo {
			t.Fatalf("request %d differs: %+v vs %+v", i, x, y)
		}
		if x.req.Seed >= 1_000_000 {
			misses++
		}
	}
	// Every never-seen cell is sent twice; about 1 in missEvery draws.
	if misses%2 != 0 || misses == 0 || misses > 4*5000/missEvery {
		t.Errorf("%d never-seen requests in 5000", misses)
	}
}

// TestPaperValuesMatchExperiments pins the reference values behind
// paper_err_pct to the headline table of EXPERIMENTS.md.
func TestPaperValuesMatchExperiments(t *testing.T) {
	f, err := os.Open("../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := map[string]map[arch.Kind]float64{}
	fig := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		cols := strings.Split(sc.Text(), "|")
		if len(cols) < 5 {
			continue
		}
		if name := strings.TrimSpace(cols[1]); name != "" {
			fig = name
		}
		key := map[string]string{"Fig 5 (outage-free speedup over NVP, geomean)": "fig5", "Fig 6 (RFHome trace, geomean)": "fig6"}[fig]
		if key == "" {
			continue
		}
		if got[key] == nil {
			got[key] = map[arch.Kind]float64{}
		}
		quantity := strings.TrimSpace(cols[2])
		paper := strings.Split(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(cols[3]), "×")), "/")
		num := func(s string) float64 {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(s), "×")), 64)
			if err != nil {
				t.Fatalf("%s %s: %v", key, quantity, err)
			}
			return v
		}
		switch quantity {
		case "ReplayCache":
			got[key][arch.ReplayCache] = num(paper[0])
		case "NVSRAM":
			got[key][arch.NVSRAM] = num(paper[0])
		case "Sweep (NVM Search)":
			got[key][arch.SweepNVMSearch] = num(paper[0])
		case "Sweep (Empty-Bit)":
			got[key][arch.SweepEmptyBit] = num(paper[0])
		case "Sweep (NVM / EB)":
			got[key][arch.SweepNVMSearch] = num(paper[0])
			got[key][arch.SweepEmptyBit] = num(paper[1])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]map[arch.Kind]float64{"fig5": paperFig5, "fig6": paperFig6} {
		if len(got[key]) != len(evalKinds) {
			t.Fatalf("%s: parsed %v from EXPERIMENTS.md, want all of %v", key, got[key], evalKinds)
		}
		for _, k := range evalKinds {
			if got[key][k] != want[k] {
				t.Errorf("%s %v: EXPERIMENTS.md says %v, benchmark uses %v", key, k, got[key][k], want[k])
			}
		}
	}
}

func TestPaperErrPct(t *testing.T) {
	if got := paperErrPct(paperFig5, paperFig6); got != 0 {
		t.Errorf("paper values against themselves: %v%%, want 0", got)
	}
	fig5 := map[arch.Kind]float64{}
	fig6 := map[arch.Kind]float64{}
	for _, k := range evalKinds {
		fig5[k], fig6[k] = paperFig5[k]*1.1, paperFig6[k]*0.9
	}
	if got := paperErrPct(fig5, fig6); got < 9.999 || got > 10.001 {
		t.Errorf("every value 10%% off: %v%%, want 10", got)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "exp.cell", ID: 1, Start: 0, End: 10 * ms},
		// Overlapping children cover [1, 6) once.
		{Name: "sim.Run", ID: 2, Parent: 1, Start: 1 * ms, End: 4 * ms},
		{Name: "core.Get", ID: 3, Parent: 1, Start: 3 * ms, End: 6 * ms},
		{Name: "journal.Append", ID: 4, Parent: 1, Start: 8 * ms, End: 12 * ms}, // clipped at 10
	}
	st := selfTime(spans)
	for layer, want := range map[string]time.Duration{"exp": 3 * ms, "sim": 3 * ms, "core": 3 * ms, "journal": 4 * ms} {
		if st[layer] != want {
			t.Errorf("self time of %s = %v, want %v", layer, st[layer], want)
		}
	}
}
