// Monte-Carlo seed sweep: the same (workload, scheme) matrix as the
// speedup figures, but across many power-trace seeds per cell, so each
// speedup is reported as a mean with a 95% confidence interval instead of
// a single-timeline point estimate. Within one cell the seeds run one
// after another through sim.RunBatch, and cells run in parallel across
// workers.
package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SweepCell is one (workload, scheme) cell of a seed sweep: the speedup
// over NVP aggregated across seeds.
type SweepCell struct {
	Workload string
	Kind     arch.Kind
	// N is the number of seeds contributing; Mean and Half are the mean
	// speedup over NVP (same seed, same timeline) and the half-width of
	// its 95% Student-t confidence interval.
	N    int
	Mean float64
	Half float64
}

// SweepResult is the outcome of a seed-sweep experiment.
type SweepResult struct {
	Profile trace.Profile
	Seeds   int
	Kinds   []arch.Kind
	Names   []string
	Cells   map[cell]SweepCell
}

// Get returns the aggregated cell for (workload, kind).
func (r *SweepResult) Get(name string, k arch.Kind) SweepCell {
	return r.Cells[cell{name, k}]
}

// sweepJob is one (workload, scheme) column of the sweep: all seeds of
// one cell.
type sweepJob struct {
	w matrixJob
	// results[i] is seed c.Seed+i's run; errs[i] its failure, if any.
	results []*sim.Result
	errs    []error
}

// SeedSweep runs every workload on NVP plus the requested kinds under
// `c.Seeds` power-trace seeds of the profile (seeds c.Seed through
// c.Seed+c.Seeds-1), running each cell's seeds as one sim.RunBatch call,
// and aggregates per-seed speedups over NVP into mean ± 95% CI per cell.
//
// The resilience contract matches runMatrix, at per-seed granularity:
// each failed seed is reported as its own *CellError carrying the exact
// (workload, scheme, profile, seed, params) identity, healthy seeds'
// results stand, and with a journal attached every completed seed is
// durable under the same content-hash identity the scalar matrix uses —
// a sweep interrupted and rerun resumes seed by seed, and a seed proven
// by a scalar run is never re-simulated (each lane is a scalar run, so
// the journals are interchangeable).
func (c *Context) SeedSweep(profile trace.Profile, kinds []arch.Kind) (*SweepResult, error) {
	p := c.Params
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("exp: invalid params: %w", err)
	}
	seeds := c.Seeds
	if seeds <= 0 {
		seeds = 1
	}
	wl := c.Workloads()
	if len(wl) == 0 {
		return nil, errors.New("exp: empty workload set — nothing to sweep")
	}

	allKinds := []arch.Kind{arch.NVP}
	seen := map[arch.Kind]bool{arch.NVP: true}
	for _, k := range kinds {
		if !seen[k] {
			seen[k] = true
			allKinds = append(allKinds, k)
		}
	}
	var jobs []*sweepJob
	for _, w := range wl {
		for _, k := range allKinds {
			jobs = append(jobs, &sweepJob{w: matrixJob{w, k}})
		}
	}

	ctx := c.ctx()
	pname := profile.String()
	fp := p.Fingerprint()

	// One worker per CPU, one job per (workload, scheme) cell.
	workers := runtime.NumCPU()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	jobCh := make(chan *sweepJob)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				c.sweepCell(ctx, j, p, profile, pname, fp, seeds)
			}
		}()
	}
feed:
	for _, j := range jobs {
		select {
		case jobCh <- j:
		case <-ctx.Done():
			// Drain: undone jobs report the cancellation per seed.
			for i := range j.results {
				if j.results[i] == nil && j.errs[i] == nil {
					j.errs[i] = c.sweepErr(j.w, pname, fp, int64(i), ctx.Err(), nil)
				}
			}
			if j.results == nil {
				j.results = make([]*sim.Result, seeds)
				j.errs = make([]error, seeds)
				for i := range j.errs {
					j.errs[i] = c.sweepErr(j.w, pname, fp, int64(i), ctx.Err(), nil)
				}
			}
			break feed
		}
	}
	close(jobCh)
	wg.Wait()

	// Per-seed error assembly, mirroring runMatrix: under cancellation the
	// interrupted seeds collapse into one summary line, genuine failures
	// are each reported with their seed identity.
	var real []error
	interrupted, done, total := 0, 0, 0
	for _, j := range jobs {
		for i := 0; i < seeds; i++ {
			if j.results == nil {
				interrupted++
				total++
				continue
			}
			total++
			if j.results[i] != nil {
				done++
			}
			err := j.errs[i]
			if err == nil {
				continue
			}
			if errors.Is(err, context.Canceled) && ctx.Err() != nil {
				interrupted++
				continue
			}
			real = append(real, err)
		}
	}
	if err := ctx.Err(); err != nil {
		real = append(real, fmt.Errorf("exp: sweep canceled with %d/%d seed-cells complete (%d interrupted): %w",
			done, total, interrupted, err))
	}
	if err := errors.Join(real...); err != nil {
		return nil, err
	}

	res := &SweepResult{Profile: profile, Seeds: seeds,
		Kinds: allKinds[1:], Cells: map[cell]SweepCell{}}
	byJob := map[cell]*sweepJob{}
	for _, j := range jobs {
		byJob[cell{j.w.w.Name, j.w.k}] = j
	}
	for _, w := range wl {
		res.Names = append(res.Names, w.Name)
		base := byJob[cell{w.Name, arch.NVP}]
		for _, k := range allKinds[1:] {
			j := byJob[cell{w.Name, k}]
			spd := make([]float64, seeds)
			for i := 0; i < seeds; i++ {
				spd[i] = float64(base.results[i].TimeNs) / float64(j.results[i].TimeNs)
			}
			mean, half := stats.MeanCI(spd)
			res.Cells[cell{w.Name, k}] = SweepCell{Workload: w.Name, Kind: k,
				N: seeds, Mean: mean, Half: half}
		}
	}

	c.printf("seed sweep under %s — speedups over NVP, mean ±95%% CI over %d seeds\n",
		pname, seeds)
	c.printf("%-13s", "benchmark")
	for _, k := range res.Kinds {
		c.printf(" %16v", k)
	}
	c.printf("\n")
	for _, name := range res.Names {
		c.printf("%-13s", name)
		for _, k := range res.Kinds {
			sc := res.Get(name, k)
			c.printf("      %5.2f ±%4.2f", sc.Mean, sc.Half)
		}
		c.printf("\n")
	}
	c.printf("\n")
	return res, nil
}

// Sweep is the seed-sweep experiment as the sweepexp command runs it:
// the Figure 6 configuration (RF-Home harvest, the four evaluated
// schemes) across c.Seeds seeds.
func (c *Context) Sweep() (*SweepResult, error) {
	return c.SeedSweep(trace.RFHome, evalKinds)
}

// sweepErr builds one seed's typed failure. Seed sweeps never fold seeds
// into one error: a multi-seed cell that fails on two seeds reports two
// *CellError values, each independently actionable (and independently
// resumable under a journal).
func (c *Context) sweepErr(j matrixJob, pname, fp string, off int64, cause error, stack []byte) *CellError {
	return &CellError{Workload: j.w.Name, Scheme: j.k.String(),
		Profile: pname, Seed: c.Seed + off, ParamsFP: fp, Err: cause, Stack: stack}
}

// sweepCell runs all seeds of one (workload, scheme) cell: journal-proven
// seeds are reconstructed, the rest run in one sim.RunBatch call. A
// panic anywhere in the cell fails its not-yet-finished seeds, with the
// recovered stack attached, while the rest of the sweep proceeds.
func (c *Context) sweepCell(ctx context.Context, j *sweepJob, p config.Params, profile trace.Profile, pname, fp string, seeds int) {
	j.results = make([]*sim.Result, seeds)
	j.errs = make([]error, seeds)
	defer func() {
		if v := recover(); v != nil {
			cause := fmt.Errorf("worker panic: %v", v)
			stack := debug.Stack()
			for i := range j.results {
				if j.results[i] == nil && j.errs[i] == nil {
					j.errs[i] = c.sweepErr(j.w, pname, fp, int64(i), cause, stack)
				}
			}
		}
	}()

	cellAt := func(off int) journal.Cell {
		id := c.cellID(j.w, pname, fp)
		id.Seed = c.Seed + int64(off)
		return id
	}

	var pending []int
	for i := 0; i < seeds; i++ {
		if c.Journal != nil {
			if rec, ok := c.Journal.Lookup(cellAt(i)); ok {
				j.results[i] = rec.Result()
				continue
			}
		}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return
	}
	fail := func(err error) {
		for _, i := range pending {
			j.errs[i] = c.sweepErr(j.w, pname, fp, int64(i), err, nil)
		}
	}

	cres, err := core.SharedCompileCache().Get(core.KeyFor(j.w.w.Name, c.Scale, j.w.k, p), c.builder(j.w.w), j.w.k, p)
	if err != nil {
		fail(err)
		return
	}
	schemes := make([]arch.Scheme, len(pending))
	opt := sim.BatchOptions{Sources: make([]trace.Source, len(pending))}
	for li, i := range pending {
		schemes[li] = arch.New(j.w.k, p)
		opt.Sources[li] = trace.NewShared(profile, c.Seed+int64(i))
	}
	if ctx != context.Background() {
		opt.Ctx = ctx
	}
	results, errs, err := sim.RunBatch(cres.Linked, schemes, opt)
	if err != nil {
		fail(err)
		return
	}
	for li, i := range pending {
		if errs[li] != nil {
			j.errs[i] = c.sweepErr(j.w, pname, fp, int64(i), errs[li], nil)
			continue
		}
		res := results[li]
		if c.Journal != nil {
			if jerr := c.Journal.Append(cellAt(i), journal.FromResult(res)); jerr != nil {
				j.errs[i] = c.sweepErr(j.w, pname, fp, int64(i), jerr, nil)
			}
		}
		j.results[i] = res
		if c.Metrics != nil {
			snap := res.Metrics()
			c.metricsMu.Lock()
			merr := c.Metrics.Merge(snap)
			c.metricsMu.Unlock()
			if merr != nil && j.errs[i] == nil {
				j.errs[i] = c.sweepErr(j.w, pname, fp, int64(i), merr, nil)
			}
		}
	}
}
