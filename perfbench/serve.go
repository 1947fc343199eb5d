package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

const (
	// corpusSeeds is how many seeds of every outage-free (workload,
	// scheme) cell the corpus holds: 26 × 8 × 30 = 6240 keys, half again
	// the memory tier's default capacity.
	corpusSeeds = 30
	// missEvery: one stream draw in missEvery is a never-seen cell, sent
	// twice in a row so the two clients race on one simulation.
	missEvery = 256
	// serveClients is the closed loop's client count: one per CPU of the
	// reference host.
	serveClients = 2
	// warmRequests fill the memory tier before the measured window.
	warmRequests = 20000
	// probeDraws is the sample size of the traced run's in-process
	// store and service probes.
	probeDraws = 5000
	// spotChecks corpus cells are re-simulated through RunSingle.
	spotChecks = 8
	// serveSlice is the warm-up length and the traced run's turn length.
	serveSlice = 500 * time.Millisecond
)

// outageFree is every (workload, scheme) pair without a power trace:
// the corpus's distinct results. Outage-free results do not depend on
// the seed, so one simulation per pair backs all corpusSeeds keys (the
// spot checks re-prove this).
func outageFree() []cellSpec {
	return matrixCells(arch.AllKinds()[1:])
}

func cellReq(c cellSpec, profile string, seed int64) service.CellRequest {
	return service.CellRequest{Workload: c.w.Name, Scheme: c.k.String(), Profile: profile, Seed: seed}
}

// journalCell is the store identity the service derives for a request
// with default scale and parameters.
func journalCell(c cellSpec, profile *trace.Profile, seed int64) journal.Cell {
	ec := exp.DefaultContext()
	ec.Seed = seed
	return ec.CellID(c.w.Name, c.k, profile)
}

// simulateAll runs every cell through exp.Context.RunSingle on a pool of
// NumCPU goroutines and returns the durable records.
func simulateAll(rec *recorder, parent int64, cells []cellSpec, profile *trace.Profile, seeds []int64) ([]*journal.Record, error) {
	out := make([]*journal.Record, len(cells))
	errs := make([]error, len(cells))
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range ch {
				ec := exp.DefaultContext()
				ec.Seed = seeds[i]
				var r *sim.Result
				rec.time("exp.Context.RunSingle", parent, lane, func(int64) {
					r, errs[i] = ec.RunSingle(context.Background(), cells[i].w.Name, cells[i].k, profile)
				})
				if errs[i] != nil {
					continue
				}
				rec.time("journal.FromResult", parent, lane, func(int64) { out[i] = journal.FromResult(r) })
				rec.time("journal.Record.Digest", parent, lane, func(int64) { out[i].Digest() })
			}
		}(w + 1)
	}
	for i := range cells {
		ch <- i
	}
	close(ch)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("simulate %s/%v: %w", cells[i].w.Name, cells[i].k, err)
		}
	}
	return out, nil
}

// writeJournal writes cells with their records to a fresh journal file.
// Corpus files stand in for what earlier runs left on disk, so they skip
// the per-append fsync.
func writeJournal(path string, cells []journal.Cell, recs []*journal.Record) error {
	j, err := journal.Open(path)
	if err != nil {
		return err
	}
	j.Fsync = false
	for i := range cells {
		if err := j.Append(cells[i], recs[i]); err != nil {
			j.Close()
			return err
		}
	}
	return j.Close()
}

// worker is one in-process sweepd: a service behind an httptest server,
// its handler wrapped to time every request server-side.
type worker struct {
	svc    *service.Service
	srv    *httptest.Server
	tracer atomic.Pointer[recorder]
	lane   int

	mu sync.Mutex
	// Handler spans of the traced window, in µs, split by whether the
	// response was served from a cache tier (warm) or simulated (cold).
	warmUs, coldUs []float64
}

func bootWorker(path string, lane int) (*worker, error) {
	svc, err := service.New(service.Config{StorePath: path})
	if err != nil {
		return nil, err
	}
	w := &worker{svc: svc, lane: lane}
	h := svc.Handler(obs.NewRunInfo("perfbench-worker", sim.EngineVersion))
	w.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := w.tracer.Load()
		if rec == nil {
			h.ServeHTTP(rw, r)
			return
		}
		cw := &captureWriter{ResponseWriter: rw}
		d := rec.time("service.Handler", 0, w.lane, func(int64) { h.ServeHTTP(cw, r) })
		us := float64(d) / 1e3
		w.mu.Lock()
		if bytes.Contains(cw.body.Bytes(), []byte(`"tier":"simulated"`)) {
			w.coldUs = append(w.coldUs, us)
		} else {
			w.warmUs = append(w.warmUs, us)
		}
		w.mu.Unlock()
	}))
	return w, nil
}

// handlerUs returns copies of the warm and cold handler spans so far.
func (w *worker) handlerUs() (warm, cold []float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]float64(nil), w.warmUs...), append([]float64(nil), w.coldUs...)
}

func (w *worker) close() error {
	w.srv.Close()
	return w.svc.Close()
}

// captureWriter keeps a copy of the response body for tier attribution.
type captureWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.body.Write(p)
	return c.ResponseWriter.Write(p)
}

// reqStream is the serve-zipf request sequence: Zipf-ranked corpus keys
// with a fixed share of never-seen cells, each sent twice in a row. The
// sequence is a function of the seed; which client sends which request
// is not.
type reqStream struct {
	mu     sync.Mutex
	z      *zipfStream
	miss   *rand.Rand
	rank   []int // rank -> corpus index
	combos []cellSpec
	dup    *streamItem
	misses int
}

type streamItem struct {
	req   service.CellRequest
	combo int // index into the outage-free pairs: the expected digest
}

// cell is the item's store identity.
func (it streamItem) cell(combos []cellSpec) journal.Cell {
	return journalCell(combos[it.combo], nil, it.req.Seed)
}

func newReqStream(seed int64, combos []cellSpec) *reqStream {
	r := rand.New(rand.NewSource(seed))
	return &reqStream{
		z:      newZipfStream(seed, len(combos)*corpusSeeds),
		miss:   rand.New(rand.NewSource(seed + 1)),
		rank:   r.Perm(len(combos) * corpusSeeds),
		combos: combos,
	}
}

// corpusItem is corpus entry i: pair i mod len(combos) at seed
// 1 + i / len(combos).
func (s *reqStream) corpusItem(i int) streamItem {
	n := len(s.combos)
	return streamItem{cellReq(s.combos[i%n], service.OutageFree, int64(1+i/n)), i % n}
}

func (s *reqStream) next() streamItem {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dup != nil {
		it := *s.dup
		s.dup = nil
		return it
	}
	if s.miss.Intn(missEvery) == 0 {
		c := s.misses % len(s.combos)
		it := streamItem{cellReq(s.combos[c], service.OutageFree, int64(1_000_000+s.misses)), c}
		s.misses++
		s.dup = &it
		return it
	}
	return s.corpusItem(s.rank[s.z.next()])
}

// serveState is one set-up's result: a booted worker over a corpus.
type serveState struct {
	w       *worker
	cl      *service.Client
	corpus  string
	digests []string // per outage-free pair
}

func serveSetup(rec *recorder, cfg *runConfig, combos []cellSpec, rep int) (*serveState, time.Duration, time.Duration, int, error) {
	st := &serveState{corpus: filepath.Join(cfg.Dir, fmt.Sprintf("corpus-%d.jsonl", rep))}
	var err error
	var cd time.Duration
	var keys int
	d := rec.time("bench.setup", 0, 0, func(id int64) {
		p := config.Default()
		if keys, cd, err = compilePass(rec, id, combos, p, rep == 0); err != nil {
			return
		}
		ones := make([]int64, len(combos))
		for i := range ones {
			ones[i] = 1
		}
		var recs []*journal.Record
		if recs, err = simulateAll(rec, id, combos, nil, ones); err != nil {
			return
		}
		for _, r := range recs {
			st.digests = append(st.digests, r.Digest())
		}
		var cells []journal.Cell
		var all []*journal.Record
		for s := int64(1); s <= corpusSeeds; s++ {
			for i, c := range combos {
				cells = append(cells, journalCell(c, nil, s))
				all = append(all, recs[i])
			}
		}
		rec.time("journal.Append", id, 0, func(int64) { err = writeJournal(st.corpus, cells, all) })
		if err != nil {
			return
		}
		rec.time("service.New", id, 0, func(int64) { st.w, err = bootWorker(st.corpus, 10) })
		if err != nil {
			return
		}
		st.cl = service.NewClient(st.w.srv.URL)
		// Fill the memory tier from a stream the measured window does
		// not replay.
		rec.time("service.Service.Cell", id, 0, func(int64) {
			warm := newReqStream(-cfg.Seed-1, combos)
			for i := 0; i < warmRequests && err == nil; i++ {
				_, err = st.w.svc.Cell(context.Background(), warm.corpusItem(warm.rank[warm.z.next()]).req)
			}
		})
	})
	return st, d, cd, keys, err
}

// serveLoop is the measured closed loop: serveClients goroutines, each
// sending its next request when the previous reply arrives.
func serveLoop(rep *report, rec *recorder, st *serveState, stream *reqStream, d time.Duration) (lat []float64, served int, elapsed time.Duration) {
	var mu sync.Mutex
	seen := map[string]string{}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			var mine []float64
			for time.Since(start) < d {
				it := stream.next()
				var resp *service.CellResponse
				var err error
				t := rec.time("service.Client.Cell", 0, lane, func(int64) {
					resp, err = st.cl.Cell(context.Background(), it.req)
				})
				mu.Lock()
				switch {
				case err != nil:
					rep.check(false, "serve %+v: %v", it.req, err)
				default:
					mine = append(mine, ms(t))
					prev, ok := seen[resp.Key]
					if !ok {
						seen[resp.Key] = resp.Digest
					}
					rep.check(resp.Digest == st.digests[it.combo] && (!ok || prev == resp.Digest),
						"serve %s/%s seed %d: digest %.12s, want %.12s", it.req.Workload, it.req.Scheme, it.req.Seed, resp.Digest, st.digests[it.combo])
				}
				mu.Unlock()
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}(c + 1)
	}
	wg.Wait()
	return lat, len(lat), time.Since(start)
}

// tierShares reports what share of the window's store lookups each tier
// served, from the store's own counters.
func tierShares(a, b store.Stats) (mem, disk, miss, coll float64, total uint64) {
	dm, dd := b.MemHits-a.MemHits, b.DiskHits-a.DiskHits
	dx, dc := b.Misses-a.Misses, b.DedupCollapses-a.DedupCollapses
	total = dm + dd + dx + dc
	if total == 0 {
		return 0, 0, 0, 0, 0
	}
	t := float64(total)
	return float64(dm) / t, float64(dd) / t, float64(dx) / t, float64(dc) / t, total
}

func runServeZipf(cfg *runConfig, rec *recorder) (*report, error) {
	combos := outageFree()
	var setup, compileMs []float64
	var keys int
	var st *serveState
	for r := 0; r < serveSetupReps; r++ {
		if st != nil {
			if err := st.w.close(); err != nil {
				return nil, err
			}
		}
		var err error
		var d, cd time.Duration
		st, d, cd, keys, err = serveSetup(rec, cfg, combos, r)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
		compileMs = append(compileMs, ms(cd))
	}
	defer st.w.close()
	stream := newReqStream(cfg.Seed, combos)

	rep := newReport()
	if cfg.Trace {
		rep = newLayerReport()
	}
	// Warm-up: the HTTP path's connections and buffers, untimed.
	serveLoop(rep, nil, st, stream, serveSlice)
	if !cfg.Trace {
		before := st.w.svc.Store().Stats()
		var slices []slice
		start := time.Now()
		for time.Since(start) < cfg.window() {
			lat, n, e := serveLoop(rep, nil, st, stream, serveSlice)
			slices = append(slices, slice{n, e, lat})
		}
		after := st.w.svc.Store().Stats()
		rep.setEndToEnd(setup, slices)
		mem, disk, miss, coll, n := tierShares(before, after)
		rep.info("tier shares of %d lookups: memory=%.4f disk=%.4f simulated=%.4f collapsed=%.4f", n, mem, disk, miss, coll)
	} else {
		// Store counters and client latencies cover the traced slices.
		var delta store.Stats
		var lat []float64
		off, on, err := alternate(cfg.window(), func(traced bool) (int, time.Duration, error) {
			if !traced {
				_, n, e := serveLoop(rep, nil, st, stream, serveSlice)
				return n, e, nil
			}
			before := st.w.svc.Store().Stats()
			st.w.tracer.Store(rec)
			l, n, e := serveLoop(rep, rec, st, stream, serveSlice)
			st.w.tracer.Store(nil)
			after := st.w.svc.Store().Stats()
			delta.MemHits += after.MemHits - before.MemHits
			delta.DiskHits += after.DiskHits - before.DiskHits
			delta.Misses += after.Misses - before.Misses
			delta.DedupCollapses += after.DedupCollapses - before.DedupCollapses
			delta.Disk.Appends += after.Disk.Appends - before.Disk.Appends
			lat = append(lat, l...)
			return n, e, nil
		})
		if err != nil {
			return nil, err
		}
		rep.tracingOverhead(off, on)
		mem, disk, miss, coll, n := tierShares(store.Stats{}, delta)
		rep.info("tier shares of %d lookups: memory=%.4f disk=%.4f simulated=%.4f collapsed=%.4f", n, mem, disk, miss, coll)
		rep.setLayer("store.mem_hit_ratio", mem)
		rep.setLayer("store.disk_hit_ratio", disk)
		rep.setLayer("store.miss_ratio", miss)
		rep.setLayer("store.collapse_ratio", coll)
		rep.setLayer("store.dedup_collapses", float64(delta.DedupCollapses))
		rep.setLayer("journal.appends", float64(delta.Disk.Appends))
		warmUs, coldUs := st.w.handlerUs()
		handler := append(warmUs, coldUs...)
		rep.setLayer("service.handler_us", mean(handler))
		rep.setLayer("service.http_overhead_us", 1e3*mean(lat)-mean(handler))
		rep.setLayer("compiler.compile_ms", median(compileMs))
		rep.setLayer("compiler.calls", float64(keys))
		compileCacheLayers(rep, rec.snapshot())
		if err := serveProbes(rep, rec, cfg, st, stream); err != nil {
			return nil, err
		}
		if err := breakdown(rep, rec, cfg.Dir, matrixSeedList(cfg.Seed)[0]); err != nil {
			return nil, err
		}
	}

	// Spot checks: corpus keys at seeds other than the simulated one must
	// match a fresh RunSingle, which re-proves the seed independence the
	// corpus relies on.
	r := rand.New(rand.NewSource(cfg.Seed + 2))
	for i := 0; i < spotChecks; i++ {
		c := r.Intn(len(combos))
		seed := int64(2 + r.Intn(corpusSeeds-1))
		ec := exp.DefaultContext()
		ec.Seed = seed
		res, err := ec.RunSingle(context.Background(), combos[c].w.Name, combos[c].k, nil)
		rep.check(err == nil && journal.FromResult(res).Digest() == st.digests[c],
			"spot check %s/%v seed %d against RunSingle (err %v)", combos[c].w.Name, combos[c].k, seed, err)
	}
	lines := make([]string, len(combos))
	for i, c := range combos {
		lines[i] = fmt.Sprintf("%s %v %s", c.w.Name, c.k, st.digests[i])
	}
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	rep.info("results_digest %s", hex.EncodeToString(h[:]))
	rep.info("corpus %d keys, memory cap %d, never-seen misses sent %d", len(combos)*corpusSeeds, store.DefaultMemCap, stream.misses)
	return rep, nil
}

// serveProbes measures the store, service and journal layers directly,
// after the traced window, on the same booted worker.
func serveProbes(rep *report, rec *recorder, cfg *runConfig, st *serveState, stream *reqStream) error {
	s := st.w.svc.Store()
	byTier := map[store.Tier][]float64{}
	var cellUs []float64
	for i := 0; i < probeDraws; i++ {
		it := stream.corpusItem(stream.rank[stream.z.next()])
		c := it.cell(stream.combos)
		var tier store.Tier
		var ok bool
		d := rec.time("store.Lookup", 0, 0, func(int64) { _, tier, ok = s.Lookup(c) })
		rep.check(ok, "store.Lookup missed corpus key %s/%s seed %d", it.req.Workload, it.req.Scheme, it.req.Seed)
		byTier[tier] = append(byTier[tier], float64(d)/1e3)
		var err error
		d = rec.time("service.Service.Cell", 0, 0, func(int64) { _, err = st.w.svc.Cell(context.Background(), it.req) })
		if err != nil {
			return err
		}
		cellUs = append(cellUs, float64(d)/1e3)
	}
	rep.setLayer("store.lookup_us.memory", mean(byTier[store.TierMemory]))
	rep.setLayer("store.lookup_us.disk", mean(byTier[store.TierDisk]))
	rep.setLayer("service.cell_us", median(cellUs))
	rep.info("store probe: %d memory, %d disk lookups", len(byTier[store.TierMemory]), len(byTier[store.TierDisk]))

	var probe []journal.Cell
	for _, c := range stream.combos {
		probe = append(probe, journalCell(c, nil, 1))
	}
	if err := journalProbes(rep, rec, cfg, st.corpus, probe); err != nil {
		return err
	}
	spans := rec.snapshot()
	rep.setLayer("journal.encode_us", encodeUs(spans))
	return nil
}

// journalProbes times a journal replay of path and 1000 durable appends
// of the records it holds for cells.
func journalProbes(rep *report, rec *recorder, cfg *runConfig, path string, cells []journal.Cell) error {
	var j *journal.Journal
	var err error
	d := rec.time("journal.Open", 0, 0, func(int64) { j, err = journal.Open(path) })
	if err != nil {
		return err
	}
	loaded := j.Stats().Loaded
	var recs []*journal.Record
	for _, c := range cells {
		if r, ok := j.Lookup(c); ok {
			recs = append(recs, r)
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	rep.setLayer("journal.open_s", d.Seconds())
	rep.setLayer("journal.records_loaded", float64(loaded))
	if len(recs) == 0 {
		return fmt.Errorf("journal probe: %s holds none of the probe cells", path)
	}
	lat, err := appendProbe(rec, 0, filepath.Join(cfg.Dir, "append-probe.jsonl"), recs, 1000)
	if err != nil {
		return err
	}
	rep.setLayer("journal.append_ms_p50", percentile(lat, 0.50))
	rep.setLayer("journal.append_ms_p99", percentile(lat, 0.99))
	return nil
}
