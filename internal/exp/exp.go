// Package exp regenerates every table and figure of the paper's
// evaluation (Section 6). One driver per experiment; each prints the same
// rows/series the paper reports and returns a typed result the tests and
// benchmarks assert on. See EXPERIMENTS.md for paper-vs-measured numbers.
package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Context configures an experiment run.
type Context struct {
	Params config.Params
	// Scale multiplies workload sizes (1 = evaluation default).
	Scale int
	// Seed selects the synthetic power-trace timeline.
	Seed int64
	// Quick restricts sweeps to a representative workload subset, for
	// tests and benchmarks.
	Quick bool
	// Seeds is the Monte-Carlo sample count for SeedSweep: timelines
	// Seed..Seed+Seeds-1 run per cell. Values below 1 mean 1.
	Seeds int
	// Only, when non-nil, further restricts the sweep to these workload
	// names. Names that match nothing are simply absent; an empty
	// resulting set fails validation in runMatrix.
	Only []string
	// Out receives the printed tables; nil discards them.
	Out io.Writer

	// Ctx, when non-nil, cancels the whole experiment: dispatch stops,
	// in-flight cells abort at their next epoch boundary, and runMatrix
	// returns an error wrapping Ctx.Err(). nil runs to completion.
	Ctx context.Context
	// CellTimeout, when positive, bounds each matrix cell's wall-clock
	// time; an overrunning cell fails with context.DeadlineExceeded while
	// the rest of the matrix completes.
	CellTimeout time.Duration
	// Store, when non-nil, remembers every matrix cell and makes the run
	// crash-safe: cells already in the store under the identical
	// configuration (and engine version) are skipped, and each computed
	// cell goes through Store.GetOrCompute, so it is durable (journal
	// append + fsync) before the run counts it. nil runs every cell with
	// no memo. See internal/store.
	Store *store.Store
	// Chaos, when non-nil, injects deterministic faults (worker panics,
	// mid-run cancellation) for resilience testing. See internal/chaos.
	Chaos *chaos.Injector

	// Tracker, when non-nil, follows every matrix cell through its state
	// machine (pending/running/done/failed/store-skipped) for the live
	// introspection endpoints. The nil path costs nothing: every hook is
	// a nil-safe method call carrying only pre-existing values. See
	// internal/obs and docs/OBSERVABILITY.md.
	Tracker *obs.CampaignTracker
	// Metrics, when non-nil, accumulates every simulated run's metrics
	// snapshot across the (parallel) experiment matrices. Store-skipped
	// cells were not simulated and contribute nothing.
	Metrics *telemetry.Snapshot
	// TraceDir, when set, records one JSONL telemetry stream per
	// simulated run into that directory.
	TraceDir string

	metricsMu sync.Mutex
	traceSeq  atomic.Uint64
}

// ctx returns the run's context, defaulting to Background.
func (c *Context) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// CellError is the structured failure of one matrix cell: a simulation
// error or a recovered worker panic, carrying everything needed to
// reproduce the cell. errors.As against *CellError recovers the identity;
// Unwrap exposes the cause (including context.Canceled for interrupted
// cells).
type CellError struct {
	Workload string
	Scheme   string
	Profile  string // trace profile name, or "outage-free"
	Seed     int64
	ParamsFP string // config.Params.Fingerprint()
	Err      error
	// Stack is the worker's stack at recovery time for panicking cells,
	// nil for ordinary errors.
	Stack []byte
}

func (e *CellError) Error() string {
	s := fmt.Sprintf("cell %s/%s under %s (seed %d, params %.8s): %v",
		e.Workload, e.Scheme, e.Profile, e.Seed, e.ParamsFP, e.Err)
	if e.Stack != nil {
		s += " (panic; stack captured)"
	}
	return s
}

func (e *CellError) Unwrap() error { return e.Err }

// DefaultContext returns the evaluation configuration.
func DefaultContext() *Context {
	return &Context{Params: config.Default(), Scale: 1, Seed: 1}
}

func (c *Context) printf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

// quickSet is the sweep subset: two of each flavour (codec, crypto, image,
// irregular).
var quickSet = map[string]bool{
	"adpcmenc": true, "gsmdec": true, "sha": true, "susane": true,
	"dijkstra": true, "fft": true, "blowfishenc": true, "rijndaelenc": true,
}

// Workloads returns the experiment's workload list.
func (c *Context) Workloads() []workloads.Workload {
	all := workloads.All()
	if c.Quick {
		var out []workloads.Workload
		for _, w := range all {
			if quickSet[w.Name] {
				out = append(out, w)
			}
		}
		all = out
	}
	if c.Only != nil {
		only := map[string]bool{}
		for _, n := range c.Only {
			only[n] = true
		}
		var out []workloads.Workload
		for _, w := range all {
			if only[w.Name] {
				out = append(out, w)
			}
		}
		all = out
	}
	return all
}

func (c *Context) builder(w workloads.Workload) core.Builder {
	scale := c.Scale
	return func() *ir.Program { return w.Build(scale) }
}

// cell identifies one simulation in a run matrix.
type cell struct {
	Workload string
	Kind     arch.Kind
}

// Matrix holds the results of workloads × schemes under one configuration.
type Matrix struct {
	Kinds   []arch.Kind
	Names   []string
	Results map[cell]*sim.Result
}

// Get returns the result for (workload, kind).
func (m *Matrix) Get(name string, k arch.Kind) *sim.Result {
	return m.Results[cell{name, k}]
}

// Speedup returns kind's speedup over NVP for one workload.
func (m *Matrix) Speedup(name string, k arch.Kind) float64 {
	return float64(m.Get(name, arch.NVP).TimeNs) / float64(m.Get(name, k).TimeNs)
}

// GeomeanSpeedup aggregates speedups over a set of workload names (nil =
// all).
func (m *Matrix) GeomeanSpeedup(k arch.Kind, names []string) float64 {
	if names == nil {
		names = m.Names
	}
	xs := make([]float64, 0, len(names))
	for _, n := range names {
		xs = append(xs, m.Speedup(n, k))
	}
	return stats.Geomean(xs)
}

// profileName renders a trace profile for cell identities and errors.
func profileName(profile *trace.Profile) string {
	if profile == nil {
		return "outage-free"
	}
	return profile.String()
}

// cellJob is one cell's work order: a workload on a scheme under one
// power-trace seed.
type cellJob struct {
	w    workloads.Workload
	k    arch.Kind
	seed int64
}

// cellRun is what every cell of one run shares: the simulation
// parameters, the supply (nil = outage-free), and the identity fields
// they fix.
type cellRun struct {
	p       config.Params
	profile *trace.Profile
	id      journal.Cell // Workload, Scheme and Seed are set per cell
}

func (c *Context) newCellRun(p config.Params, profile *trace.Profile) *cellRun {
	return &cellRun{p: p, profile: profile, id: journal.Cell{
		Scale:    c.Scale,
		Profile:  profileName(profile),
		ParamsFP: p.Fingerprint(),
		Engine:   sim.EngineVersion,
	}}
}

// cellID is the journal/store identity of one cell of the run.
func (r *cellRun) cellID(workload string, k arch.Kind, seed int64) journal.Cell {
	id := r.id
	id.Workload, id.Scheme, id.Seed = workload, k.String(), seed
	return id
}

// fail builds one cell's typed failure. Seeds are never folded into one
// error: a cell that fails on two seeds reports two *CellError values,
// each independently actionable (and independently resumable).
func (r *cellRun) fail(j cellJob, cause error, stack []byte) *CellError {
	return &CellError{Workload: j.w.Name, Scheme: j.k.String(), Profile: r.id.Profile,
		Seed: j.seed, ParamsFP: r.id.ParamsFP, Err: cause, Stack: stack}
}

// cellRuns is the outcome of runCells: the schemes in run order (NVP
// first), the workload names, and each (workload, scheme) cell's results,
// one per seed in seed order.
type cellRuns struct {
	kinds []arch.Kind
	names []string
	res   map[cell][]*sim.Result
}

// runMatrix executes every workload on NVP plus the requested kinds under
// the context's seed of the trace profile (nil = outage-free). See
// runCells.
func (c *Context) runMatrix(kinds []arch.Kind, profile *trace.Profile, p config.Params) (*Matrix, error) {
	runs, err := c.runCells(kinds, 1, profile, p)
	if err != nil {
		return nil, err
	}
	m := &Matrix{Kinds: kinds, Names: runs.names, Results: make(map[cell]*sim.Result, len(runs.res))}
	for k, rs := range runs.res {
		m.Results[k] = rs[0]
	}
	return m, nil
}

// runCells executes every workload on NVP plus the requested kinds under
// seeds power-trace timelines (c.Seed onwards) of the same profile (nil =
// outage-free), in parallel, each on a fresh cursor. Deterministic: every
// run of one seed sees the identical timeline. Every matrix and the seed
// sweep run their cells here.
//
// Resilience properties (see docs/ROBUSTNESS.md):
//   - Each worker isolates panics: one bad cell fails one cell, as a
//     *CellError carrying workload/scheme/supply/seed/params identity plus
//     the recovered stack, while healthy cells complete. errors.Join
//     reports every failure.
//   - A cancelled context stops dispatch, aborts in-flight cells at their
//     next epoch boundary, and joins the workers before returning — no
//     orphaned goroutines, ever.
//   - With a store attached, completed cells are durable and re-runs
//     skip them, so any interruption (cancel, panic, kill -9) resumes to
//     a byte-identical result.
func (c *Context) runCells(kinds []arch.Kind, seeds int, profile *trace.Profile, p config.Params) (*cellRuns, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("exp: invalid params: %w", err)
	}
	wl := c.Workloads()
	if len(wl) == 0 {
		return nil, errors.New("exp: empty workload set — nothing to run")
	}

	// NVP (the baseline every figure normalizes to) always runs; requested
	// kinds are deduplicated so a caller listing NVP explicitly does not
	// double-run it.
	runs := &cellRuns{kinds: []arch.Kind{arch.NVP}, res: map[cell][]*sim.Result{}}
	seen := map[arch.Kind]bool{arch.NVP: true}
	for _, k := range kinds {
		if !seen[k] {
			seen[k] = true
			runs.kinds = append(runs.kinds, k)
		}
	}
	var jobs []cellJob
	for _, w := range wl {
		runs.names = append(runs.names, w.Name)
		for _, k := range runs.kinds {
			for i := 0; i < seeds; i++ {
				jobs = append(jobs, cellJob{w, k, c.Seed + int64(i)})
			}
		}
	}

	ctx := c.ctx()
	if c.Chaos != nil {
		var cancel context.CancelFunc
		ctx, cancel = c.Chaos.Arm(ctx)
		defer cancel()
	}
	run := c.newCellRun(p, profile)

	// Live tracking: register the run's cells before the store pass so
	// /progress sees skips as skips, not as missing cells. Guarded —
	// building the meta slice is the one tracker interaction that
	// allocates, and the nil path must stay allocation-free.
	var trkBase int
	if c.Tracker != nil {
		metas := make([]obs.CellMeta, len(jobs))
		for i, j := range jobs {
			metas[i] = obs.CellMeta{Workload: j.w.Name, Scheme: j.k.String(), Profile: run.id.Profile}
		}
		trkBase = c.Tracker.AddCells(metas)
	}

	// Store consultation: cells already proven under this exact
	// configuration are reconstructed, not re-simulated.
	results := make([]*sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	var pending []int
	reused := 0
	for idx, j := range jobs {
		if c.Store != nil {
			if rec, _, ok := c.Store.Lookup(run.cellID(j.w.Name, j.k, j.seed)); ok {
				results[idx] = rec.Result()
				reused++
				c.Tracker.Skip(trkBase + idx)
				continue
			}
		}
		pending = append(pending, idx)
	}

	// Fixed-size worker pool: exactly min(NumCPU, len(pending)) goroutines
	// exist at any moment, however large the matrix — the alternative
	// (spawn per job, gate on a semaphore inside) stacks up one idle
	// goroutine per queued cell. Results and errors land in indexed
	// slots, so no mutex and no result reordering.
	workers := runtime.NumCPU()
	if workers > len(pending) {
		workers = len(pending)
	}
	jobCh := make(chan int)
	var wg sync.WaitGroup
	var chaosPanics, chaosCancels uint64
	if c.Chaos != nil {
		chaosPanics, chaosCancels = c.Chaos.Panics(), c.Chaos.Cancels()
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobCh {
				j := jobs[idx]
				// Heartbeat + cell state hooks are nil-safe no-ops when no
				// tracker is attached; the disabled path allocates nothing
				// (pinned by TestTrackerHooksNilZeroAlloc).
				c.Tracker.Heartbeat(i)
				// A cancelled run drains the queue without simulating:
				// every undone cell reports the cancellation and the pool
				// winds down promptly.
				if err := ctx.Err(); err != nil {
					errs[idx] = run.fail(j, err, nil)
					c.Tracker.Fail(i, trkBase+idx, err, false)
					continue
				}
				c.Tracker.Start(i, trkBase+idx)
				results[idx], errs[idx] = c.storedCell(ctx, run, j)
				if errs[idx] == nil {
					c.Tracker.Done(i, trkBase+idx)
					continue
				}
				var ce *CellError
				panicked := errors.As(errs[idx], &ce) && ce.Stack != nil
				c.Tracker.Fail(i, trkBase+idx, errs[idx], panicked)
			}
		}()
	}
	// Dispatch until done or cancelled; either way the channel closes and
	// the workers join before runCells returns.
feed:
	for _, idx := range pending {
		select {
		case jobCh <- idx:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobCh)
	wg.Wait()

	// Fold store/chaos activity into the metrics accumulator.
	if c.Metrics != nil && (c.Store != nil || c.Chaos != nil) {
		reg := telemetry.NewRegistry()
		if c.Store != nil {
			reg.Counter("journal.cells_reused").Add(uint64(reused))
		}
		if c.Chaos != nil {
			reg.Counter("chaos.injected_panics").Add(c.Chaos.Panics() - chaosPanics)
			reg.Counter("chaos.injected_cancels").Add(c.Chaos.Cancels() - chaosCancels)
		}
		snap := reg.Snapshot()
		c.metricsMu.Lock()
		err := c.Metrics.Merge(snap)
		c.metricsMu.Unlock()
		if err != nil {
			return nil, err
		}
	}

	// Error assembly: a cancelled run reports the cancellation (wrapping
	// ctx.Err() so errors.Is works) plus any genuine cell failures;
	// otherwise every failed cell is reported, in job order, while the
	// healthy cells' results stand — and, with a store, are already
	// durable, so the run is resumable.
	var real []error
	interrupted := 0
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			interrupted++
			continue
		}
		real = append(real, err)
	}
	if err := ctx.Err(); err != nil {
		done := 0
		for _, r := range results {
			if r != nil {
				done++
			}
		}
		real = append(real, fmt.Errorf("exp: matrix canceled with %d/%d cells complete (%d interrupted): %w",
			done, len(jobs), interrupted, err))
	}
	if err := errors.Join(real...); err != nil {
		return nil, err
	}
	for i, j := range jobs {
		key := cell{j.w.Name, j.k}
		runs.res[key] = append(runs.res[key], results[i])
	}
	return runs, nil
}

// storedCell runs one cell through the store when one is attached: the
// store serves a cell proven meanwhile, and a computed cell is durable
// before it is returned. Without a store the cell simply runs.
func (c *Context) storedCell(ctx context.Context, run *cellRun, j cellJob) (*sim.Result, error) {
	if c.Store == nil {
		return c.runCell(ctx, run, j)
	}
	var res *sim.Result
	rec, _, err := c.Store.GetOrCompute(ctx, run.cellID(j.w.Name, j.k, j.seed), func(ctx context.Context) (*journal.Record, error) {
		r, err := c.runCell(ctx, run, j)
		if err != nil {
			return nil, err
		}
		res = r
		return journal.FromResult(r), nil
	})
	if err != nil {
		// A compute failure is already a *CellError; the store's own (a
		// proof that could not be made durable) is wrapped to name the
		// cell.
		var ce *CellError
		if !errors.As(err, &ce) {
			err = run.fail(j, err, nil)
		}
		return nil, err
	}
	if res == nil {
		res = rec.Result() // served by the store, not simulated here
	}
	return res, nil
}

// runCell runs one cell inside a panic isolation boundary: a panicking
// simulation (or injected chaos fault) is converted into a *CellError
// with the recovered value and stack, so the rest of the run is
// unaffected.
func (c *Context) runCell(ctx context.Context, run *cellRun, j cellJob) (res *sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, run.fail(j, fmt.Errorf("worker panic: %v", v), debug.Stack())
		}
	}()
	if c.Chaos != nil {
		c.Chaos.CellStart(j.w.Name, j.k.String(), j.seed)
	}
	runCtx := ctx
	if c.CellTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, c.CellTimeout)
		defer cancel()
	}
	var src trace.Source
	if run.profile != nil {
		src = trace.NewShared(*run.profile, j.seed)
	}
	res, runErr := c.runJob(runCtx, j.w, j.k, run.p, src)
	if runErr != nil {
		return nil, run.fail(j, runErr, nil)
	}
	return res, nil
}

// runJob executes one (workload, scheme) simulation, recording per-run
// telemetry and folding the run's metrics into the context accumulator
// when those are enabled.
func (c *Context) runJob(ctx context.Context, w workloads.Workload, k arch.Kind, p config.Params, src trace.Source) (*sim.Result, error) {
	var tr *telemetry.Tracer
	var traceFile *os.File
	if c.TraceDir != "" {
		seq := c.traceSeq.Add(1)
		name := fmt.Sprintf("%04d_%s_%v.jsonl", seq, w.Name, k)
		f, err := os.Create(filepath.Join(c.TraceDir, name))
		if err != nil {
			return nil, err
		}
		traceFile = f
		tr = telemetry.NewTracer(telemetry.NewJSONLSink(f), 0)
	}
	// Binaries come from the process-wide compile cache: schemes sharing
	// a compiler mode (and figures sharing parameters) reuse one
	// compilation instead of rebuilding per cell.
	res, err := func() (*sim.Result, error) {
		cres, err := core.SharedCompileCache().Get(core.KeyFor(w.Name, c.Scale, k, p), c.builder(w), k, p)
		if err != nil {
			return nil, err
		}
		return core.RunCompiledCtx(ctx, cres, k, p, src, tr)
	}()
	if traceFile != nil {
		if cerr := tr.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	if c.Metrics != nil {
		snap := res.Metrics()
		c.metricsMu.Lock()
		defer c.metricsMu.Unlock()
		if err := c.Metrics.Merge(snap); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// MetricsSnapshot returns a copy of the accumulated simulation metrics,
// safe to call concurrently with a running matrix — the live /metrics
// endpoint scrapes it mid-campaign. An empty snapshot when metrics
// accumulation is off.
func (c *Context) MetricsSnapshot() *telemetry.Snapshot {
	out := telemetry.NewSnapshot()
	if c.Metrics == nil {
		return out
	}
	c.metricsMu.Lock()
	defer c.metricsMu.Unlock()
	// Merging into an empty snapshot deep-copies and cannot conflict.
	_ = out.Merge(c.Metrics)
	return out
}

// suites splits the matrix workload names by benchmark suite.
func (c *Context) suites() (media, mi []string) {
	for _, w := range c.Workloads() {
		if w.Suite == "mediabench" {
			media = append(media, w.Name)
		} else {
			mi = append(mi, w.Name)
		}
	}
	return
}
