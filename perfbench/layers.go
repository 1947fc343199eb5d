package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/journal"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// layerMetrics lists every per-layer metric with its unit. A traced run
// prints all of them; a layer the workload does not exercise reads 0.
var layerMetrics = [][2]string{
	{"compiler.compile_ms", "ms"}, {"compiler.calls", "count"},
	{"core.compile_cache.hit_ratio", "ratio"}, {"core.compile_cache.entries", "count"},
	{"trace.tape_ms", "ms"}, {"trace.tape_cache.entries", "count"},
	{"sim.scalar.busy_s", "s"}, {"sim.scalar.instrs_per_s", "instrs/s"},
	{"sim.instrs", "count"}, {"sim.outages", "count"},
	{"sim.lockstep.busy_s", "s"}, {"sim.lockstep.instrs_per_s", "instrs/s"},
	{"sim.lockstep.gain_vs_scalar", "x"},
	{"exp.fig5_s", "s"}, {"exp.fig6_s", "s"}, {"exp.seedsweep_s", "s"},
	{"exp.pool_util", "ratio"}, {"exp.paper_err_pct", "%"},
	{"journal.append_ms_p50", "ms"}, {"journal.append_ms_p99", "ms"},
	{"journal.appends", "count"}, {"journal.encode_us", "us"},
	{"journal.open_s", "s"}, {"journal.records_loaded", "count"},
	{"store.mem_hit_ratio", "ratio"}, {"store.disk_hit_ratio", "ratio"},
	{"store.miss_ratio", "ratio"}, {"store.collapse_ratio", "ratio"},
	{"store.dedup_collapses", "count"},
	{"store.lookup_us.memory", "us"}, {"store.lookup_us.disk", "us"},
	{"service.cell_us", "us"}, {"service.handler_us", "us"}, {"service.http_overhead_us", "us"},
	{"dist.leases", "count"}, {"dist.reissues", "count"}, {"dist.hedges", "count"},
	{"dist.duplicates", "count"}, {"dist.useful_lease_frac", "ratio"},
	{"dist.lease_handler_ms", "ms"}, {"dist.coord_overhead_ms", "ms"},
	{"dist.warm_share", "ratio"},
	{"tracing.cells_per_s_untraced", "cells/s"}, {"tracing.cells_per_s_traced", "cells/s"},
	{"tracing.overhead_cells_per_s", "cells/s"},
}

// newLayerReport returns a report with every per-layer metric at 0.
func newLayerReport() *report {
	rep := newReport()
	for _, m := range layerMetrics {
		rep.set(m[0], 0, m[1])
	}
	return rep
}

// setLayer sets a per-layer metric, keeping its declared unit.
func (r *report) setLayer(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("perfbench: undeclared layer metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}

// slice is one measured stretch of the serve-zipf closed loop.
type slice struct {
	cells   int
	elapsed time.Duration
	lat     []float64 // per-cell latencies, ms
}

// setEndToEnd fills the end-to-end metrics of a closed loop whose window
// is cut into slices. Every figure is a median over them, so a burst of
// load from outside the benchmark moves a few slices rather than the
// result: throughput and median latency are medians of the per-slice
// values, and the p99 is the median of p99s over runs of consecutive
// slices pooled until each has minTail samples beyond its p99.
func (r *report) setEndToEnd(setup []float64, slices []slice) {
	var rates, p50s, p99s, group []float64
	n := 0
	for _, s := range slices {
		rates = append(rates, float64(s.cells)/s.elapsed.Seconds())
		p50s = append(p50s, percentile(s.lat, 0.50))
		group = append(group, s.lat...)
		n += len(s.lat)
		if tailOK(len(group), 0.99) {
			p99s = append(p99s, percentile(group, 0.99))
			group = group[:0]
		}
	}
	r.set("cells_per_s", median(rates), "cells/s")
	r.set("latency_p50_ms", median(p50s), "ms")
	r.set("latency_p99_ms", median(p99s), "ms")
	r.info("slices=%d latency samples=%d, p99 groups=%d (>=%d samples beyond p99 each)",
		len(slices), n, len(p99s), minTail)
	// The p99 is a result only with enough samples beyond it; a run that
	// cannot say it fails its check instead of printing a guess.
	r.check(len(p99s) > 0, "latency_p99_ms needs %d samples beyond p99, have %d samples", minTail, n)
	r.setCommon(setup)
}

// bestReps is how many of a repeated unit's fastest repetitions count.
const bestReps = 2

// repeats collects a window that runs the same work over and over: the
// latency of every repetition of each cell, and the wall time of every
// repetition of each unit of work whose cells have no latency of their
// own. A repetition's cells come in the same order every time, so a cell
// is its index. The cells with latencies run on lanes that each hold one
// cell at a time, back to back, so their share of the wall time is the
// sum of their latencies over the lanes.
type repeats struct {
	lanes int
	lat   [][]float64 // lat[i]: cell i's latency in each repetition, ms
	units map[string][]time.Duration
	cells map[string]int // cells per repetition of each unit
}

// newRepeats collects a window whose cells run on the given number of
// lanes.
func newRepeats(lanes int) *repeats {
	return &repeats{units: map[string][]time.Duration{}, cells: map[string]int{}, lanes: lanes}
}

// unit records one repetition of the named unit of work.
func (p *repeats) unit(name string, cells int, d time.Duration) {
	p.units[name] = append(p.units[name], d)
	p.cells[name] = cells
}

// latencies records one repetition's per-cell latencies, in cell order,
// and reports whether it has as many cells as the first repetition.
func (p *repeats) latencies(lat []float64) bool {
	if p.lat == nil {
		p.lat = make([][]float64, len(lat))
	}
	if len(lat) != len(p.lat) {
		return false
	}
	for i, v := range lat {
		p.lat[i] = append(p.lat[i], v)
	}
	return true
}

// fastest returns the k smallest of xs (all of them if there are fewer),
// sorting xs in place.
func fastest(xs []float64, k int) []float64 {
	sort.Float64s(xs)
	return xs[:min(k, len(xs))]
}

// setRepeated fills the end-to-end metrics of a window of repeated work.
// On a shared host, outside load only ever slows a repetition down, and it
// comes and goes within seconds. So every figure is taken from the
// bestReps fastest repetitions of each cell or unit, and the finer the
// parts, the more of them catch a quiet moment. The latency percentiles
// are taken over every cell's fastest repetitions, pooled. Throughput is
// one repetition's cells over the sum of the cells' fastest latencies
// divided by the lanes, plus each unit's mean fastest wall time.
func (r *report) setRepeated(setup []float64, p *repeats) {
	reps := 0
	if len(p.lat) > 0 {
		reps = len(p.lat[0])
	}
	var pooled []float64
	for _, xs := range p.lat {
		pooled = append(pooled, fastest(xs, bestReps)...)
	}
	cells := len(p.lat)
	secs := mean(pooled) * float64(len(p.lat)) / 1e3 / float64(p.lanes)
	for name, ds := range p.units {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = d.Seconds()
		}
		cells += p.cells[name]
		secs += mean(fastest(xs, bestReps))
		reps = min(reps, len(ds))
	}
	r.set("cells_per_s", float64(cells)/secs, "cells/s")
	r.set("latency_p50_ms", percentile(pooled, 0.50), "ms")
	r.set("latency_p99_ms", percentile(pooled, 0.99), "ms")
	r.info("repetitions=%d of %d cells and %d units; latency samples=%d (the %d fastest of each cell's)",
		reps, len(p.lat), len(p.units), len(pooled), bestReps)
	r.check(reps >= bestReps, "the window held %d repetitions, fewer than %d", reps, bestReps)
	r.check(tailOK(len(pooled), 0.99), "latency_p99_ms needs %d samples beyond p99, have %d samples", minTail, len(pooled))
	r.setCommon(setup)
}

// setCommon fills the end-to-end metrics every workload reports the same
// way.
func (r *report) setCommon(setup []float64) {
	r.set("setup_s", median(setup), "s")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
}

// tracingOverhead reports traced and untraced throughput of the same
// timed loop, and their difference.
func (r *report) tracingOverhead(untraced, traced float64) {
	r.setLayer("tracing.cells_per_s_untraced", untraced)
	r.setLayer("tracing.cells_per_s_traced", traced)
	r.setLayer("tracing.overhead_cells_per_s", traced-untraced)
}

// cellSpec is one (workload, scheme) pair of a matrix.
type cellSpec struct {
	w workloads.Workload
	k arch.Kind
}

// matrixCells lists every workload on NVP plus kinds, workload-major —
// the order package exp uses.
func matrixCells(kinds []arch.Kind) []cellSpec {
	var out []cellSpec
	for _, w := range workloads.All() {
		out = append(out, cellSpec{w, arch.NVP})
		for _, k := range kinds {
			out = append(out, cellSpec{w, k})
		}
	}
	return out
}

func builder(w workloads.Workload) core.Builder {
	return func() *ir.Program { return w.Build(1) }
}

// compileKeys returns one cell per distinct compile key among cells.
func compileKeys(cells []cellSpec, p config.Params) []cellSpec {
	seen := map[core.CompileKey]bool{}
	var out []cellSpec
	for _, c := range cells {
		k := core.KeyFor(c.w.Name, 1, c.k, p)
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// compilePass compiles every distinct binary the cells need. The first
// set-up pass fills the process-wide compile cache; later passes compile
// the same binaries afresh with core.Compile, so every pass does the same
// cold work.
func compilePass(rec *recorder, parent int64, cells []cellSpec, p config.Params, first bool) (int, time.Duration, error) {
	keys := compileKeys(cells, p)
	var err error
	d := rec.time("core.compile_pass", parent, 0, func(id int64) {
		for _, c := range keys {
			if first {
				rec.time("core.SharedCompileCache.Get", id, 0, func(int64) {
					_, err = core.SharedCompileCache().Get(core.KeyFor(c.w.Name, 1, c.k, p), builder(c.w), c.k, p)
				})
			} else {
				rec.time("core.Compile", id, 0, func(int64) {
					_, err = core.Compile(builder(c.w), c.k, p)
				})
			}
			if err != nil {
				err = fmt.Errorf("compile %s for %v: %w", c.w.Name, c.k, err)
				return
			}
		}
	})
	return len(keys), d, err
}

// tapeHorizonNs is how much simulated time the set-up's tape pass
// materialises per power-trace seed: about twice the longest RFHome cell
// of the evaluation matrix. Longer runs extend their tape lazily.
const tapeHorizonNs = 400_000_000

// tapePass drops every shared power-trace tape and regenerates one per
// seed up to tapeHorizonNs.
func tapePass(rec *recorder, parent int64, seeds []int64) time.Duration {
	trace.FlushSharedTapes()
	return rec.time("trace.tape_pass", parent, 0, func(id int64) {
		for _, s := range seeds {
			rec.time("trace.NewShared", id, 0, func(int64) {
				src := trace.NewShared(trace.RFHome, s)
				for t := int64(0); t < tapeHorizonNs; {
					d, _ := src.Next()
					t += d
				}
			})
		}
	})
}

// appendProbe times n durable appends (write + fsync) of recs, cycled, to
// a fresh journal and returns their latencies in ms.
func appendProbe(rec *recorder, parent int64, path string, recs []*journal.Record, n int) ([]float64, error) {
	j, err := journal.Open(path)
	if err != nil {
		return nil, err
	}
	lat := make([]float64, 0, n)
	for i := 0; i < n && err == nil; i++ {
		cell := journal.Cell{Workload: "probe", Scale: 1, Scheme: "probe", Seed: int64(i)}
		d := rec.time("journal.Append", parent, 0, func(int64) { err = j.Append(cell, recs[i%len(recs)]) })
		lat = append(lat, ms(d))
	}
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return lat, err
}

// compileCacheLayers reports the shared compile cache's size and the hit
// ratio of the benchmark's own Get calls: every entry was filled by
// exactly one cold Get, and every other Get hit.
func compileCacheLayers(rep *report, spans []span) {
	gets, _ := spanStats(spans, "core.SharedCompileCache.Get")
	entries := core.SharedCompileCache().Len()
	rep.setLayer("core.compile_cache.entries", float64(entries))
	rep.setLayer("core.compile_cache.hit_ratio", 1-float64(entries)/float64(gets))
}

// encodeUs is the mean cost, in µs, of turning a finished result into
// its durable, digested record.
func encodeUs(spans []span) float64 {
	n1, fr := spanStats(spans, "journal.FromResult")
	_, dg := spanStats(spans, "journal.Record.Digest")
	if n1 == 0 {
		return 0
	}
	return float64(fr+dg) / float64(n1) / 1e3
}
