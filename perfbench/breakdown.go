package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// breakdownCell is the Fig6 cell whose wall time the traced run splits
// layer by layer.
var breakdownCell = struct {
	workload string
	kind     arch.Kind
}{"dijkstra", arch.SweepEmptyBit}

// breakdown runs one Fig6 cell twice through every layer a served cell
// crosses — compile, tape, simulate, encode, journal append+fsync, store,
// HTTP — first with every cache cold, then warm, and prints both columns.
// The two passes' records and the served digests must all agree.
func breakdown(rep *report, rec *recorder, dir string, seed int64) error {
	w, err := workloads.ByName(breakdownCell.workload)
	if err != nil {
		return err
	}
	k, p := breakdownCell.kind, config.Default()
	c := cellSpec{w, k}
	prof := trace.RFHome
	id := journalCell(c, &prof, seed)
	req := cellReq(c, prof.String(), seed)
	path := filepath.Join(dir, "breakdown.jsonl")
	j, err := journal.Open(path)
	if err != nil {
		return err
	}
	st := store.New(j, 0)
	defer st.Close()

	steps := []string{"compile", "tape", "simulate", "encode", "journal append+fsync", "store", "http"}
	var cols [2][]time.Duration
	var digests []string
	var wk *worker
	var cl *service.Client
	defer func() {
		if wk != nil {
			wk.close()
		}
	}()
	for pass, name := range []string{"bench.cell_cold", "bench.cell_warm"} {
		var stepErr error
		rec.time(name, 0, 0, func(root int64) {
			col := make([]time.Duration, 0, len(steps))
			step := func(span string, fn func()) {
				if stepErr == nil {
					col = append(col, rec.time(span, root, 0, func(int64) { fn() }))
				}
			}
			var cres *compiler.Result
			if pass == 0 {
				step("core.Compile", func() { cres, stepErr = core.Compile(builder(w), k, p) })
				trace.FlushSharedTapes()
			} else {
				step("core.SharedCompileCache.Get", func() {
					cres, stepErr = core.SharedCompileCache().Get(core.KeyFor(w.Name, 1, k, p), builder(w), k, p)
				})
			}
			step("trace.NewShared", func() {
				src := trace.NewShared(prof, seed)
				for t := int64(0); t < tapeHorizonNs; {
					d, _ := src.Next()
					t += d
				}
			})
			var res *sim.Result
			step("sim.Run", func() {
				res, stepErr = sim.Run(cres.Linked, arch.New(k, p), sim.Options{Source: trace.NewShared(prof, seed)})
			})
			var jr *journal.Record
			step("journal.Record.Digest", func() {
				jr = journal.FromResult(res)
				digests = append(digests, jr.Digest())
			})
			step("journal.Append", func() { stepErr = j.Append(id, jr) })
			// Cold: the record is only in the journal index, so the store
			// serves it from disk and promotes it; warm: from memory.
			step("store.Lookup", func() {
				if _, _, ok := st.Lookup(id); !ok {
					stepErr = fmt.Errorf("store lost the appended cell")
				}
			})
			if pass == 0 && stepErr == nil {
				// A worker booted over the journal serves its first request
				// from disk on a fresh connection.
				if wk, stepErr = bootWorker(path, 30); stepErr == nil {
					cl = service.NewClient(wk.srv.URL)
				}
			}
			step("service.Client.Cell", func() {
				var resp *service.CellResponse
				resp, stepErr = cl.Cell(context.Background(), req)
				if stepErr == nil {
					digests = append(digests, resp.Digest)
				}
			})
			cols[pass] = col
		})
		if stepErr != nil {
			return fmt.Errorf("cell breakdown: %w", stepErr)
		}
	}
	for i := 1; i < len(digests); i++ {
		rep.check(digests[i] == digests[0], "cell breakdown: digest %d %.12s != %.12s", i, digests[i], digests[0])
	}
	rep.info("cell breakdown %s/%v RFHome seed %d (ms):   cold      warm", w.Name, k, seed)
	for i, s := range steps {
		rep.info("  %-22s %10.3f %10.3f", s, ms(cols[0][i]), ms(cols[1][i]))
	}
	return nil
}
