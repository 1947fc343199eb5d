package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/dist"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/trace"
)

const (
	// leaseSeeds RFHome timelines per (workload, scheme): the campaign is
	// 26 workloads × 5 schemes × 5 seeds = 650 cells.
	leaseSeeds = 5
	// leaseWarmSeeds of each pair's seeds are already proven in the
	// workers' journals: two fifths of the campaign. Choosing them per
	// pair keeps the cold half's simulation work the same for every
	// workload seed, and keeping the share off one half puts the median
	// cell latency inside the cold cells' distribution instead of on the
	// jump between warm and cold.
	leaseWarmSeeds = 2
	// leaseWorkers in-process workers, one lane each.
	leaseWorkers = 2
)

// leaseCampaign is the seeded campaign: its requests, their cells, and
// which are warm.
type leaseCampaign struct {
	reqs  []service.CellRequest
	cells []cellSpec
	seeds []int64
	warm  []bool
}

func newLeaseCampaign(seed int64) *leaseCampaign {
	lc := &leaseCampaign{}
	for i := int64(0); i < leaseSeeds; i++ {
		lc.seeds = append(lc.seeds, 1_000_000+(seed%1_000_000_000)*leaseSeeds+i)
	}
	for _, c := range matrixCells(evalKinds) {
		for _, s := range lc.seeds {
			lc.reqs = append(lc.reqs, cellReq(c, trace.RFHome.String(), s))
			lc.cells = append(lc.cells, c)
		}
	}
	lc.warm = make([]bool, len(lc.reqs))
	r := rand.New(rand.NewSource(seed))
	for pair := 0; pair < len(lc.reqs); pair += leaseSeeds {
		for _, i := range r.Perm(leaseSeeds)[:leaseWarmSeeds] {
			lc.warm[pair+i] = true
		}
	}
	return lc
}

// journalCell is request i's store identity.
func (lc *leaseCampaign) journalCell(i int) journal.Cell {
	p := trace.RFHome
	return journalCell(lc.cells[i], &p, lc.reqs[i].Seed)
}

// leaseSetup proves the warm part of the campaign into a pristine journal
// and boots (then stops) one worker pair over it.
func leaseSetup(rec *recorder, cfg *runConfig, lc *leaseCampaign, rep int) (string, time.Duration, time.Duration, time.Duration, int, error) {
	path := filepath.Join(cfg.Dir, fmt.Sprintf("pristine-%d.jsonl", rep))
	var err error
	var cd, td time.Duration
	var keys int
	d := rec.time("bench.setup", 0, 0, func(id int64) {
		if keys, cd, err = compilePass(rec, id, matrixCells(evalKinds), config.Default(), rep == 0); err != nil {
			return
		}
		td = tapePass(rec, id, lc.seeds)
		var cells []cellSpec
		var seeds []int64
		var ids []journal.Cell
		for i, w := range lc.warm {
			if w {
				cells = append(cells, lc.cells[i])
				seeds = append(seeds, lc.reqs[i].Seed)
				ids = append(ids, lc.journalCell(i))
			}
		}
		p := trace.RFHome
		var recs []*journal.Record
		if recs, err = simulateAll(rec, id, cells, &p, seeds); err != nil {
			return
		}
		rec.time("journal.Append", id, 0, func(int64) { err = writeJournal(path, ids, recs) })
		if err != nil {
			return
		}
		var ws []*worker
		ws, err = bootWorkers(rec, id, cfg, path, "setup")
		for _, w := range ws {
			if cerr := w.close(); err == nil {
				err = cerr
			}
		}
	})
	return path, d, cd, td, keys, err
}

// bootWorkers starts leaseWorkers workers, each over its own copy of the
// pristine journal, as after a crash of an earlier campaign.
func bootWorkers(rec *recorder, parent int64, cfg *runConfig, pristine, tag string) ([]*worker, error) {
	raw, err := os.ReadFile(pristine)
	if err != nil {
		return nil, err
	}
	var ws []*worker
	for i := 0; i < leaseWorkers; i++ {
		path := filepath.Join(cfg.Dir, fmt.Sprintf("worker%d-%s.jsonl", i, tag))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return ws, err
		}
		var w *worker
		rec.time("service.New", parent, 0, func(int64) { w, err = bootWorker(path, 20+i) })
		if err != nil {
			return ws, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// leaseIter is one resumed campaign's outcome.
type leaseIter struct {
	report  *dist.Report
	wall    time.Duration
	lat     []float64 // per-cell lease turnaround seen by the coordinator, ms
	warmLat []float64
	stats   []store.Stats
	// Server-side lease handler spans, µs, split by the serving tier.
	warmUs, coldUs []float64
}

// runLeaseIter boots fresh workers over the pristine journal, runs the
// campaign through a coordinator (timed), and stops the workers.
func runLeaseIter(rec *recorder, cfg *runConfig, lc *leaseCampaign, pristine string, n int) (*leaseIter, error) {
	ws, err := bootWorkers(nil, 0, cfg, pristine, "run")
	defer func() {
		for _, w := range ws {
			w.close()
		}
	}()
	if err != nil {
		return nil, err
	}
	var urls []string
	for _, w := range ws {
		urls = append(urls, w.srv.URL)
		w.tracer.Store(rec)
	}
	trk := obs.NewCampaignTracker(nil)
	coord, err := dist.New(dist.Config{Workers: urls, LanesPerWorker: 1, Tracker: trk})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	it := &leaseIter{}
	it.wall = rec.time("dist.Coordinator.Run", 0, 0, func(int64) {
		it.report, err = coord.Run(context.Background(), lc.reqs)
	})
	for _, w := range ws {
		w.tracer.Store(nil)
		it.stats = append(it.stats, w.svc.Store().Stats())
		warm, cold := w.handlerUs()
		it.warmUs = append(it.warmUs, warm...)
		it.coldUs = append(it.coldUs, cold...)
	}
	if err != nil {
		return nil, fmt.Errorf("campaign %d: %w", n, err)
	}
	// The tracker registered the campaign's cells in request order.
	for i, c := range trk.Progress().Cells {
		if c.State == obs.CellDone {
			it.lat = append(it.lat, c.DurationMs)
			if lc.warm[i] {
				it.warmLat = append(it.warmLat, c.DurationMs)
			}
		}
	}
	return it, nil
}

func runLeaseResume(cfg *runConfig, rec *recorder) (*report, error) {
	lc := newLeaseCampaign(cfg.Seed)
	var setup, compileMs, tapeMs []float64
	var keys int
	var pristine string
	for r := 0; r < setupReps; r++ {
		var err error
		var d, cd, td time.Duration
		pristine, d, cd, td, keys, err = leaseSetup(rec, cfg, lc, r)
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
	// Warm-up: one untimed campaign, checked with the measured ones.
	warmup, err := runLeaseIter(nil, cfg, lc, pristine, 0)
	if err != nil {
		return nil, err
	}
	iters := []*leaseIter{warmup} // every campaign, checked below
	if !cfg.Trace {
		// Each lane holds one lease at a time, and the coordinator's gap
		// between a lane's leases is about 0.5% of a campaign, so the
		// cells' turnarounds time the campaign. Booting a campaign's
		// workers is set-up work, outside the measurement.
		reps := newRepeats(leaseWorkers)
		var rates []float64
		_, _, err := timedLoop(cfg.window(), func() (int, error) {
			it, err := runLeaseIter(nil, cfg, lc, pristine, len(iters))
			if err != nil {
				return 0, err
			}
			iters = append(iters, it)
			rates = append(rates, float64(len(it.report.Completed))/it.wall.Seconds())
			rep.check(reps.latencies(it.lat), "lease-resume: %d cell latencies, want %d", len(it.lat), len(reps.lat))
			return len(it.report.Completed), nil
		})
		if err != nil {
			return nil, err
		}
		rep.setRepeated(setup, reps)
		rep.info("median campaign throughput over the coordinator's Run: %.1f cells/s", median(rates))
	} else {
		var traced []*leaseIter
		var wall time.Duration
		off, on, err := alternate(cfg.window(), func(tr bool) (int, time.Duration, error) {
			r := rec
			if !tr {
				r = nil
			}
			it, err := runLeaseIter(r, cfg, lc, pristine, len(iters))
			if err != nil {
				return 0, 0, err
			}
			iters = append(iters, it)
			if tr {
				traced = append(traced, it)
				wall += it.wall
			}
			return len(it.report.Completed), it.wall, nil
		})
		if err != nil {
			return nil, err
		}
		rep.tracingOverhead(off, on)
		rep.setLayer("compiler.compile_ms", median(compileMs))
		rep.setLayer("compiler.calls", float64(keys))
		rep.setLayer("trace.tape_ms", median(tapeMs))
		rep.setLayer("trace.tape_cache.entries", float64(trace.TapeCacheLen()))
		leaseLayers(rep, traced, wall)
	}

	// Every campaign must merge to the digest of a single-process run of
	// the same requests, with nothing quarantined.
	golden, err := dist.RunLocal(context.Background(), lc.reqs, nil)
	if err != nil {
		return nil, fmt.Errorf("golden run: %w", err)
	}
	want := golden.CampaignDigest()
	var warm, cells int
	for i, it := range iters {
		r := it.report
		rep.check(len(r.Quarantined) == 0 && len(r.Completed) == len(lc.reqs),
			"campaign %d: %d completed, %d quarantined of %d", i, len(r.Completed), len(r.Quarantined), len(lc.reqs))
		rep.check(r.DigestMismatches == 0, "campaign %d: %d digest mismatches", i, r.DigestMismatches)
		rep.check(r.CampaignDigest() == want, "campaign %d: digest %.12s != single-process %.12s", i, r.CampaignDigest(), want)
		for _, o := range r.Completed {
			cells++
			if o.Tier != "simulated" {
				warm++
			}
		}
	}
	rep.info("results_digest %s", want)
	rep.info("campaigns %d of %d cells; warm share %.4f, cold share %.4f", len(iters), len(lc.reqs),
		float64(warm)/float64(cells), 1-float64(warm)/float64(cells))
	if cfg.Trace {
		rep.setLayer("dist.warm_share", float64(warm)/float64(cells))
		if err := leaseReplay(rep, rec, lc, golden); err != nil {
			return nil, err
		}
		if err := leaseProbes(rep, rec, cfg, lc, pristine); err != nil {
			return nil, err
		}
		if err := breakdown(rep, rec, cfg.Dir, lc.seeds[0]); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// leaseLayers fills the coordinator, store and service metrics of the
// traced campaigns.
func leaseLayers(rep *report, iters []*leaseIter, wall time.Duration) {
	var leases, cells, reissues, hedges, dups int
	var mem, disk, miss, coll, appends uint64
	var warmLat, warmUs, handlerUs []float64
	for _, it := range iters {
		r := it.report
		for _, o := range r.Completed {
			leases += o.Attempts
		}
		for _, q := range r.Quarantined {
			leases += q.Attempts
		}
		cells += len(r.Completed)
		reissues += r.Reissues
		hedges += r.Hedges
		dups += r.Duplicates
		warmLat = append(warmLat, it.warmLat...)
		warmUs = append(warmUs, it.warmUs...)
		handlerUs = append(append(handlerUs, it.warmUs...), it.coldUs...)
		for _, s := range it.stats {
			mem += s.MemHits
			disk += s.DiskHits
			miss += s.Misses
			coll += s.DedupCollapses
			appends += uint64(s.Disk.Appends)
		}
	}
	total := float64(mem + disk + miss + coll)
	rep.setLayer("dist.leases", float64(leases))
	rep.setLayer("dist.reissues", float64(reissues))
	rep.setLayer("dist.hedges", float64(hedges))
	rep.setLayer("dist.duplicates", float64(dups))
	rep.setLayer("dist.useful_lease_frac", float64(cells)/float64(leases))
	handlerMs := mean(handlerUs) / 1e3
	rep.setLayer("dist.lease_handler_ms", handlerMs)
	rep.setLayer("dist.coord_overhead_ms", ms(wall)*leaseWorkers/float64(cells)-handlerMs)
	rep.setLayer("store.mem_hit_ratio", float64(mem)/total)
	rep.setLayer("store.disk_hit_ratio", float64(disk)/total)
	rep.setLayer("store.miss_ratio", float64(miss)/total)
	rep.setLayer("store.collapse_ratio", float64(coll)/total)
	rep.setLayer("store.dedup_collapses", float64(coll))
	rep.setLayer("journal.appends", float64(appends))
	rep.setLayer("service.handler_us", mean(warmUs))
	rep.setLayer("service.http_overhead_us", 1e3*mean(warmLat)-mean(warmUs))
}

// leaseReplay re-runs the campaign's cold cells through the layer calls a
// worker makes — compile cache, tape, scalar engine, record encoding —
// and checks each record against the single-process run.
func leaseReplay(rep *report, rec *recorder, lc *leaseCampaign, golden *dist.Report) error {
	want := map[string]string{}
	for _, o := range golden.Completed {
		want[o.Key] = o.Digest
	}
	p := config.Default()
	var jobs []int
	for i, w := range lc.warm {
		if !w {
			jobs = append(jobs, i)
		}
	}
	var mu sync.Mutex
	var instrs, outages uint64
	ch := make(chan int)
	var wg sync.WaitGroup
	wall := rec.time("exp.replay.cold", 0, 0, func(phase int64) {
		for w := 0; w < runtime.NumCPU(); w++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				for i := range ch {
					got, si, _, out, err := replayCell(rec, phase, lane, replayJob{c: lc.cells[i], seed: lc.reqs[i].Seed}, p)
					key := lc.journalCell(i).Key()
					mu.Lock()
					instrs += si
					outages += out
					rep.check(err == nil && len(got) == 1 && got[0] == want[key],
						"lease replay %s/%s seed %d: %v", lc.reqs[i].Workload, lc.reqs[i].Scheme, lc.reqs[i].Seed, err)
					mu.Unlock()
				}
			}(w + 1)
		}
		for _, i := range jobs {
			ch <- i
		}
		close(ch)
		wg.Wait()
	})
	spans := rec.snapshot()
	_, scalar := spanStats(spans, "core.RunCompiledCtx")
	_, cellBusy := spanStats(spans, "exp.cell")
	rep.setLayer("sim.scalar.busy_s", scalar.Seconds())
	rep.setLayer("sim.instrs", float64(instrs))
	rep.setLayer("sim.outages", float64(outages))
	rep.setLayer("sim.scalar.instrs_per_s", float64(instrs)/scalar.Seconds())
	rep.setLayer("exp.pool_util", cellBusy.Seconds()/(wall.Seconds()*float64(runtime.NumCPU())))
	compileCacheLayers(rep, spans)
	rep.setLayer("journal.encode_us", encodeUs(spans))
	return nil
}

// leaseProbes measures one booted worker's store and service on the warm
// cells, then the journal replay and append paths.
func leaseProbes(rep *report, rec *recorder, cfg *runConfig, lc *leaseCampaign, pristine string) error {
	ws, err := bootWorkers(rec, 0, cfg, pristine, "probe")
	defer func() {
		for _, w := range ws {
			w.close()
		}
	}()
	if err != nil {
		return err
	}
	s := ws[0].svc.Store()
	byTier := map[store.Tier][]float64{}
	var cellUs []float64
	var probe []journal.Cell
	for i, w := range lc.warm {
		if !w {
			continue
		}
		c := lc.journalCell(i)
		for pass := 0; pass < 2; pass++ {
			var tier store.Tier
			var ok bool
			d := rec.time("store.Lookup", 0, 0, func(int64) { _, tier, ok = s.Lookup(c) })
			rep.check(ok, "store.Lookup missed warm cell %s/%s seed %d", lc.reqs[i].Workload, lc.reqs[i].Scheme, lc.reqs[i].Seed)
			byTier[tier] = append(byTier[tier], float64(d)/1e3)
		}
		// The first request promotes the cell from disk; the second is
		// the in-process memory hit.
		for pass := 0; pass < 2; pass++ {
			d := rec.time("service.Service.Cell", 0, 0, func(int64) { _, err = ws[1].svc.Cell(context.Background(), lc.reqs[i]) })
			if err != nil {
				return err
			}
			if pass == 1 {
				cellUs = append(cellUs, float64(d)/1e3)
			}
		}
		probe = append(probe, c)
	}
	rep.setLayer("store.lookup_us.memory", mean(byTier[store.TierMemory]))
	rep.setLayer("store.lookup_us.disk", mean(byTier[store.TierDisk]))
	rep.setLayer("service.cell_us", median(cellUs))
	return journalProbes(rep, rec, cfg, pristine, probe)
}
