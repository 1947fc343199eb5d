package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// matrixSeeds is K, the number of RFHome timelines the Fig6 and seed-sweep
// phases of the matrix workload cover.
const matrixSeeds = 4

// matrixSeedList derives the K RFHome seeds from the workload seed.
func matrixSeedList(seed int64) []int64 {
	base := 1 + (seed%1_000_000_000)*matrixSeeds
	out := make([]int64, matrixSeeds)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// matrixIter is one pass over the paper evaluation: Fig5 once, Fig6 per
// seed on the scalar engine, and the seed sweep over the same seeds on
// the lockstep engine.
type matrixIter struct {
	fig5  *exp.SpeedupResult
	fig6  []*exp.SpeedupResult
	sweep *exp.SweepResult
	cells int
	lat   []float64 // per-cell turnaround of the scalar pool cells, ms
	// The Sweep() call's wall time and cells, every seed lane counted.
	// Its batched cells have no turnaround of their own.
	sweepWall  time.Duration
	sweepCells int
}

func runMatrixIter(rec *recorder, seeds []int64) (*matrixIter, error) {
	it := &matrixIter{}
	// A campaign tracker times every scalar cell from the pool's
	// dispatch to its completion: the per-cell latency.
	trk := obs.NewCampaignTracker(nil)
	ctx := func(seed int64) *exp.Context {
		c := exp.DefaultContext()
		c.Seed = seed
		c.Tracker = trk
		return c
	}
	var err error
	rec.time("exp.Context.Fig5", 0, 0, func(int64) { it.fig5, err = ctx(1).Fig5() })
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	rec.time("exp.fig6_phase", 0, 0, func(id int64) {
		for _, s := range seeds {
			var r *exp.SpeedupResult
			rec.time("exp.Context.Fig6", id, 0, func(int64) { r, err = ctx(s).Fig6() })
			if err != nil {
				err = fmt.Errorf("fig6 seed %d: %w", s, err)
				return
			}
			it.fig6 = append(it.fig6, r)
		}
	})
	if err != nil {
		return nil, err
	}
	it.sweepWall = rec.time("exp.Context.Sweep", 0, 0, func(int64) {
		c := ctx(seeds[0])
		c.Seeds = len(seeds)
		it.sweep, err = c.Sweep()
	})
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	n := len(it.fig5.Matrix.Names) * (len(evalKinds) + 1)
	it.cells = n + 2*n*len(seeds)
	it.sweepCells = n * len(seeds)
	for _, c := range trk.Progress().Cells {
		if c.State == obs.CellDone {
			it.lat = append(it.lat, c.DurationMs)
		}
	}
	return it, nil
}

// check pins the scalar and lockstep engines against each other: every
// cell's mean Fig6 speedup over the K seeds must equal the seed sweep's
// mean, bit for bit.
func (it *matrixIter) check(rep *report) {
	for _, name := range it.sweep.Names {
		for _, k := range it.sweep.Kinds {
			sum := 0.0
			for _, r := range it.fig6 {
				sum += r.Matrix.Speedup(name, k)
			}
			got, want := sum/float64(len(it.fig6)), it.sweep.Get(name, k).Mean
			rep.check(got == want, "matrix %s/%v: Fig6 seed-mean speedup %v != sweep mean %v", name, k, got, want)
		}
	}
}

// fingerprint is a cheap identity of the iteration's simulated results,
// compared across iterations of one run.
func (it *matrixIter) fingerprint() string {
	h := sha256.New()
	put := func(m *exp.Matrix) {
		for _, name := range m.Names {
			for _, k := range append([]arch.Kind{arch.NVP}, evalKinds...) {
				r := m.Get(name, k)
				fmt.Fprintf(h, "%d %d %d %d\n", r.TimeNs, r.Outages, r.Counts.Executed, r.NVMWrites)
			}
		}
	}
	put(it.fig5.Matrix)
	for _, r := range it.fig6 {
		put(r.Matrix)
	}
	for _, name := range it.sweep.Names {
		for _, k := range it.sweep.Kinds {
			c := it.sweep.Get(name, k)
			fmt.Fprintf(h, "%v %v\n", c.Mean, c.Half)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digest is the full results identity: every Fig5 and Fig6 cell's
// durable record digest plus every sweep cell's mean and interval.
func (it *matrixIter) digest() string {
	h := sha256.New()
	put := func(tag string, m *exp.Matrix) {
		for _, name := range m.Names {
			for _, k := range append([]arch.Kind{arch.NVP}, evalKinds...) {
				fmt.Fprintf(h, "%s %s %v %s\n", tag, name, k, journal.FromResult(m.Get(name, k)).Digest())
			}
		}
	}
	put("fig5", it.fig5.Matrix)
	for i, r := range it.fig6 {
		put(fmt.Sprintf("fig6[%d]", i), r.Matrix)
	}
	fmt.Fprintf(h, "sweep %s\n", it.fingerprint())
	return hex.EncodeToString(h.Sum(nil))
}

// paperErr is paper_err_pct for this iteration: Fig5 geomeans and the
// seed-mean of the Fig6 geomeans against the paper.
func (it *matrixIter) paperErr() float64 {
	fig6 := map[arch.Kind]float64{}
	for _, k := range evalKinds {
		for _, r := range it.fig6 {
			fig6[k] += r.GeoAll[k] / float64(len(it.fig6))
		}
	}
	return paperErrPct(it.fig5.GeoAll, fig6)
}

// matrixStep runs and checks one iteration; fp holds the first
// iteration's fingerprint, which every later one must repeat.
func matrixStep(rep *report, rec *recorder, seeds []int64, fp *string) (*matrixIter, error) {
	it, err := runMatrixIter(rec, seeds)
	if err != nil {
		return nil, err
	}
	it.check(rep)
	f := it.fingerprint()
	if *fp == "" {
		*fp = f
	}
	rep.check(f == *fp, "matrix: iteration results differ from the first iteration's")
	return it, nil
}

func runMatrix(cfg *runConfig, rec *recorder) (*report, error) {
	p := config.Default()
	seeds := matrixSeedList(cfg.Seed)
	cells := matrixCells(evalKinds)

	var setup, compileMs, tapeMs []float64
	var keys int
	for r := 0; r < setupReps; r++ {
		var err error
		var cd, td time.Duration
		d := rec.time("bench.setup", 0, 0, func(id int64) {
			keys, cd, err = compilePass(rec, id, cells, p, r == 0)
			td = tapePass(rec, id, seeds)
		})
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
		compileMs = append(compileMs, ms(cd))
		tapeMs = append(tapeMs, ms(td))
	}

	rep := newReport()
	if cfg.Trace {
		rep = newLayerReport()
	}
	var fp string
	// Warm-up: one untimed iteration grows the heap and touches every
	// binary and tape before the window opens. Its results are the ones
	// reported; every later iteration must repeat them and is dropped
	// once checked, so the live heap stays the same from one iteration
	// to the next.
	first, err := matrixStep(rep, nil, seeds, &fp)
	if err != nil {
		return nil, err
	}
	if !cfg.Trace {
		// exp's pool runs NumCPU cells at a time and keeps its workers
		// about 98.5% busy (exp.pool_util), so the Fig5 and Fig6 cells'
		// turnarounds time their phases.
		reps := newRepeats(runtime.NumCPU())
		_, _, err := timedLoop(cfg.window(), func() (int, error) {
			it, err := matrixStep(rep, nil, seeds, &fp)
			if err != nil {
				return 0, err
			}
			reps.unit("sweep", it.sweepCells, it.sweepWall)
			rep.check(reps.latencies(it.lat), "matrix: %d cell latencies, want %d", len(it.lat), len(reps.lat))
			return it.cells, nil
		})
		if err != nil {
			return nil, err
		}
		rep.setRepeated(setup, reps)
		rep.info("results_digest %s", first.digest())
		rep.info("paper_err_pct %.4f (deterministic; see exp.paper_err_pct)", first.paperErr())
		rep.info("rfhome seeds %v, cells per iteration %d", seeds, first.cells)
		return rep, nil
	}

	mark := len(rec.snapshot())
	off, on, err := alternate(cfg.window(), func(traced bool) (int, time.Duration, error) {
		r := rec
		if !traced {
			r = nil
		}
		t := time.Now()
		it, err := matrixStep(rep, r, seeds, &fp)
		if err != nil {
			return 0, 0, err
		}
		return it.cells, time.Since(t), nil
	})
	if err != nil {
		return nil, err
	}
	rep.tracingOverhead(off, on)
	loop := rec.snapshot()[mark:]
	iters, fig5 := spanStats(loop, "exp.Context.Fig5")
	_, fig6 := spanStats(loop, "exp.fig6_phase")
	_, sweep := spanStats(loop, "exp.Context.Sweep")
	rep.setLayer("exp.fig5_s", fig5.Seconds()/float64(iters))
	rep.setLayer("exp.fig6_s", fig6.Seconds()/float64(iters))
	rep.setLayer("exp.seedsweep_s", sweep.Seconds()/float64(iters))
	rep.setLayer("sim.lockstep.gain_vs_scalar", fig6.Seconds()/sweep.Seconds())
	rep.setLayer("exp.paper_err_pct", first.paperErr())
	rep.setLayer("compiler.compile_ms", median(compileMs))
	rep.setLayer("compiler.calls", float64(keys))
	rep.setLayer("trace.tape_ms", median(tapeMs))
	rep.setLayer("trace.tape_cache.entries", float64(trace.TapeCacheLen()))

	if err := replayMatrix(rep, rec, first, seeds, p); err != nil {
		return nil, err
	}
	if err := breakdown(rep, rec, cfg.Dir, seeds[0]); err != nil {
		return nil, err
	}
	rep.info("results_digest %s", first.digest())
	return rep, nil
}

// replayJob is one cell of the replay: a scalar run (seed 0 =
// outage-free) or, with batch set, one lockstep batch over every seed.
type replayJob struct {
	c     cellSpec
	seed  int64
	batch []int64
	want  []string // expected record digests, one per run
}

// replayMatrix re-runs one iteration's cells through the same layer
// calls package exp makes — compile cache, tape, engine,
// record encoding — on a pool as wide as exp's, so the matrix's time
// splits by layer. Every replayed record must match the digest of the
// experiment's own result.
func replayMatrix(rep *report, rec *recorder, it *matrixIter, seeds []int64, p config.Params) error {
	cells := matrixCells(evalKinds)
	digestOf := func(r *sim.Result) string { return journal.FromResult(r).Digest() }
	var phases [3][]replayJob
	for _, c := range cells {
		phases[0] = append(phases[0], replayJob{c: c, want: []string{digestOf(it.fig5.Matrix.Get(c.w.Name, c.k))}})
		var batchWant []string
		for i, s := range seeds {
			d := digestOf(it.fig6[i].Matrix.Get(c.w.Name, c.k))
			phases[1] = append(phases[1], replayJob{c: c, seed: s, want: []string{d}})
			batchWant = append(batchWant, d)
		}
		phases[2] = append(phases[2], replayJob{c: c, batch: seeds, want: batchWant})
	}

	workers := runtime.NumCPU()
	var poolWall time.Duration
	var scalarInstrs, lockInstrs, outages uint64
	var mu sync.Mutex
	for pi, jobs := range phases {
		name := [...]string{"exp.replay.fig5", "exp.replay.fig6", "exp.replay.seedsweep"}[pi]
		poolWall += rec.time(name, 0, 0, func(phase int64) {
			ch := make(chan replayJob)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(lane int) {
					defer wg.Done()
					for j := range ch {
						got, si, li, out, err := replayCell(rec, phase, lane, j, p)
						mu.Lock()
						scalarInstrs += si
						lockInstrs += li
						outages += out
						mu.Unlock()
						if err != nil {
							mu.Lock()
							rep.check(false, "replay %s/%v: %v", j.c.w.Name, j.c.k, err)
							mu.Unlock()
							continue
						}
						mu.Lock()
						for i := range got {
							rep.check(got[i] == j.want[i], "replay %s/%v run %d: digest %.12s != experiment's %.12s",
								j.c.w.Name, j.c.k, i, got[i], j.want[i])
						}
						mu.Unlock()
					}
				}(w + 1)
			}
			for _, j := range jobs {
				ch <- j
			}
			close(ch)
			wg.Wait()
		})
	}
	spans := rec.snapshot()
	_, cellBusy := spanStats(spans, "exp.cell")
	_, scalar := spanStats(spans, "core.RunCompiledCtx")
	_, lock := spanStats(spans, "sim.RunBatch")
	rep.setLayer("exp.pool_util", cellBusy.Seconds()/(poolWall.Seconds()*float64(workers)))
	rep.setLayer("sim.scalar.busy_s", scalar.Seconds())
	rep.setLayer("sim.instrs", float64(scalarInstrs))
	rep.setLayer("sim.outages", float64(outages))
	rep.setLayer("sim.scalar.instrs_per_s", float64(scalarInstrs)/scalar.Seconds())
	rep.setLayer("sim.lockstep.busy_s", lock.Seconds())
	rep.setLayer("sim.lockstep.instrs_per_s", float64(lockInstrs)/lock.Seconds())
	compileCacheLayers(rep, spans)
	rep.setLayer("journal.encode_us", encodeUs(spans))
	return nil
}

// replayCell runs one replay job and returns the record digests with the
// simulated instruction and outage counts.
func replayCell(rec *recorder, phase int64, lane int, j replayJob, p config.Params) (digests []string, scalarInstrs, lockInstrs, outages uint64, err error) {
	rec.time("exp.cell", phase, lane, func(id int64) {
		var cres *compiler.Result
		rec.time("core.SharedCompileCache.Get", id, lane, func(int64) {
			cres, err = core.SharedCompileCache().Get(core.KeyFor(j.c.w.Name, 1, j.c.k, p), builder(j.c.w), j.c.k, p)
		})
		if err != nil {
			return
		}
		var results []*sim.Result
		if j.batch == nil {
			var src trace.Source
			if j.seed != 0 {
				rec.time("trace.NewShared", id, lane, func(int64) { src = trace.NewShared(trace.RFHome, j.seed) })
			}
			var r *sim.Result
			rec.time("core.RunCompiledCtx", id, lane, func(int64) {
				r, err = core.RunCompiledCtx(context.Background(), cres, j.c.k, p, src, nil)
			})
			if err != nil {
				return
			}
			results = []*sim.Result{r}
			scalarInstrs += r.Counts.Executed
			outages += r.Outages
		} else {
			schemes := make([]arch.Scheme, len(j.batch))
			opt := sim.BatchOptions{Sources: make([]trace.Source, len(j.batch))}
			rec.time("trace.NewShared", id, lane, func(int64) {
				for i, s := range j.batch {
					schemes[i] = arch.New(j.c.k, p)
					opt.Sources[i] = trace.NewShared(trace.RFHome, s)
				}
			})
			var errs []error
			rec.time("sim.RunBatch", id, lane, func(int64) {
				results, errs, err = sim.RunBatch(cres.Linked, schemes, opt)
			})
			if err == nil {
				for _, e := range errs {
					if e != nil {
						err = e
					}
				}
			}
			if err != nil {
				return
			}
			for _, r := range results {
				lockInstrs += r.Counts.Executed
			}
		}
		for _, r := range results {
			var jr *journal.Record
			rec.time("journal.FromResult", id, lane, func(int64) { jr = journal.FromResult(r) })
			rec.time("journal.Record.Digest", id, lane, func(int64) { digests = append(digests, jr.Digest()) })
		}
	})
	return digests, scalarInstrs, lockInstrs, outages, err
}
