// Command sweepexp regenerates the paper's tables and figures.
//
// Usage:
//
//	sweepexp -exp fig5            # one experiment
//	sweepexp -exp all             # everything (EXPERIMENTS.md source)
//	sweepexp -exp fig7 -quick     # reduced workload subset
//	sweepexp -exp all -journal run.jsonl   # crash-safe: kill and rerun to resume
//	sweepexp -exp all -listen :8090        # live introspection while it runs
//	sweepexp -list                # list experiment names
//
// Ctrl-C (or -timeout) cancels the run promptly: in-flight simulations
// abort at their next epoch boundary, workers drain, and the process
// exits 130. With -journal, cells completed before the interruption are
// durable and a rerun with the same flags resumes where it stopped,
// producing byte-identical results (see docs/ROBUSTNESS.md).
//
// With -listen, a live control plane serves /metrics (Prometheus text),
// /progress (per-cell states, cells/sec, ETA), /healthz, and /runinfo
// while the campaign runs, and a watchdog logs cells running beyond 4×
// the rolling p95 (see docs/OBSERVABILITY.md). Without the flag the
// tracking hooks are nil no-ops and results are byte-identical.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

type experiment struct {
	name string
	desc string
	run  func(c *exp.Context) error
}

// csvDir, when set by -csv, receives <experiment>.csv exports for the
// figures that support them.
var csvDir string

// exportCSV writes one figure's CSV when -csv is in effect.
func exportCSV(name string, write func(w io.Writer) error) error {
	if csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

var experiments = []experiment{
	{"table1", "simulation configuration", func(c *exp.Context) error { c.Table1(); return nil }},
	{"fig5", "outage-free speedups over NVP", func(c *exp.Context) error {
		r, err := c.Fig5()
		if err != nil {
			return err
		}
		if c.Out != nil {
			fmt.Fprintln(c.Out, r.Chart())
		}
		return exportCSV("fig5", r.WriteCSV)
	}},
	{"fig6", "RFHome speedups over NVP", func(c *exp.Context) error {
		r, err := c.Fig6()
		if err != nil {
			return err
		}
		return exportCSV("fig6", r.WriteCSV)
	}},
	{"fig7", "RFOffice speedups over NVP", func(c *exp.Context) error {
		r, err := c.Fig7()
		if err != nil {
			return err
		}
		return exportCSV("fig7", r.WriteCSV)
	}},
	{"par", "Sec 6.3 parallelism efficiency", func(c *exp.Context) error { _, err := c.Parallelism(); return err }},
	{"fig8", "cache-size sensitivity", func(c *exp.Context) error { _, err := c.Fig8(); return err }},
	{"fig9", "capacitor sensitivity + Table 2 outages", func(c *exp.Context) error {
		r, err := c.Fig9()
		if err != nil {
			return err
		}
		return exportCSV("fig9", r.WriteCSV)
	}},
	{"fig10", "power-trace comparison", func(c *exp.Context) error {
		r, err := c.Fig10()
		if err != nil {
			return err
		}
		return exportCSV("fig10", r.WriteCSV)
	}},
	{"fig11", "propagation-delay sensitivity", func(c *exp.Context) error { _, err := c.Fig11(); return err }},
	{"fig12", "region size / store count CDFs", func(c *exp.Context) error {
		r, err := c.Fig12()
		if err != nil {
			return err
		}
		return exportCSV("fig12", r.WriteCSV)
	}},
	{"icount", "Sec 6.5 instruction counts", func(c *exp.Context) error { _, err := c.ICount(); return err }},
	{"fig13", "backup/restore energy breakdown", func(c *exp.Context) error { _, err := c.Fig13(); return err }},
	{"fig14", "SweepCache vs NvMR", func(c *exp.Context) error { _, err := c.Fig14(); return err }},
	{"fig15", "cache miss rates per trace", func(c *exp.Context) error { _, err := c.Fig15(); return err }},
	{"fig16", "NVM writes normalized to NVSRAM", func(c *exp.Context) error { _, err := c.Fig16(); return err }},
	{"hwcost", "Sec 6.9 hardware cost", func(c *exp.Context) error { c.HWCost(); return nil }},
	{"degradation", "Sec 2.2 backup-threshold ablation", func(c *exp.Context) error { _, err := c.Degradation(); return err }},
	{"threshold", "Sec 6.4 store-threshold study", func(c *exp.Context) error { _, err := c.Threshold(); return err }},
	{"ablation", "design-choice ablations (dual-buffer, empty-bit, unrolling)", func(c *exp.Context) error {
		r, err := c.Ablation()
		if err == nil && c.Out != nil {
			fmt.Fprintln(c.Out, r.Chart())
		}
		return err
	}},
	{"recovery", "per-outage recovery latency (Sec 2.2 slow-recovery claim)", func(c *exp.Context) error { _, err := c.Recovery(); return err }},
	{"vmin", "Table 1 footnote: SweepCache with Vmin 1.8 V", func(c *exp.Context) error { _, err := c.Vmin(); return err }},
	{"wt", "Figure 1(b) naive write-through baseline", func(c *exp.Context) error { _, err := c.WT(); return err }},
}

// extraExperiments run only when named explicitly: a Monte-Carlo seed
// sweep multiplies the whole Figure 6 matrix by -seeds, so it is not part
// of 'all'.
var extraExperiments = []experiment{
	{"seedsweep", "Monte-Carlo seed sweep: Fig 6 matrix × -seeds timelines (mean ±95% CI)",
		func(c *exp.Context) error { _, err := c.Sweep(); return err }},
}

func main() {
	name := flag.String("exp", "all", "experiment name or 'all'")
	csv := flag.String("csv", "", "directory to export figure CSVs into")
	quick := flag.Bool("quick", false, "run the reduced workload subset")
	scale := flag.Int("scale", 1, "workload scale factor")
	seed := flag.Int64("seed", 1, "power-trace seed")
	seeds := flag.Int("seeds", 1, "seed count for -exp seedsweep: timelines seed..seed+seeds-1 per cell")
	only := flag.String("only", "", "comma-separated workload names to restrict the sweep to")
	metricsFile := flag.String("metrics", "", "write metrics aggregated across every simulated run to this file ('-' = stdout)")
	traceDir := flag.String("tracedir", "", "record one JSONL telemetry stream per simulated run into this directory")
	pprofPrefix := flag.String("pprof", "", "write <prefix>.cpu.pb.gz and <prefix>.mem.pb.gz profiles")
	paramsFile := flag.String("params", "", "JSON file of config.Params overrides (validated before any run)")
	timeout := flag.Duration("timeout", 0, "cancel the whole run after this duration (0 = none)")
	cellTimeout := flag.Duration("celltimeout", 0, "per-cell wall-clock bound; an overrunning cell fails while the rest complete (0 = none)")
	journalPath := flag.String("journal", "", "append-only cell journal for crash-safe resume; rerun with the same flags to skip proven cells")
	chaosSpec := flag.String("chaos", "", "fault-injection spec, e.g. 'seed=7,panic=0.05,cancel=12,delay=5ms' (testing only)")
	listen := flag.String("listen", "", "serve live /metrics, /progress, /healthz, /runinfo on this address (e.g. :8090)")
	logfmt := flag.String("logfmt", "text", "log format: text|json")
	verbose := flag.Bool("v", false, "debug logging")
	list := flag.Bool("list", false, "list experiments")
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logfmt, *verbose)
	if err != nil {
		slog.Error("sweepexp: bad -logfmt", "err", err)
		os.Exit(2)
	}
	fail := func(msg string, args ...any) {
		log.Error(msg, args...)
		os.Exit(1)
	}

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-12s %s\n", e.name, e.desc)
		}
		for _, e := range extraExperiments {
			fmt.Printf("%-12s %s (not part of 'all')\n", e.name, e.desc)
		}
		return
	}

	csvDir = *csv
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fail("csv directory", "err", err)
		}
	}
	ctx := exp.DefaultContext()
	ctx.Quick = *quick
	ctx.Scale = *scale
	ctx.Seed = *seed
	ctx.Seeds = *seeds
	if *only != "" {
		ctx.Only = strings.Split(*only, ",")
	}
	ctx.Out = os.Stdout
	ctx.CellTimeout = *cellTimeout
	if *paramsFile != "" {
		raw, err := os.ReadFile(*paramsFile)
		if err != nil {
			fail("params file unreadable", "path", *paramsFile, "err", err)
		}
		p, err := config.FromJSON(raw)
		if err != nil {
			fail("params file invalid", "path", *paramsFile, "err", err)
		}
		ctx.Params = p
	}
	// Metrics accumulate for an explicit -metrics file and for the live
	// /metrics endpoint.
	if *metricsFile != "" || *listen != "" {
		ctx.Metrics = telemetry.NewSnapshot()
	}

	// Ctrl-C / SIGTERM cancel the run; a second signal kills the process
	// outright via the restored default handler.
	runCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, *timeout)
		defer cancel()
	}
	ctx.Ctx = runCtx

	info := obs.NewRunInfo("sweepexp", sim.EngineVersion)
	info.Experiment = *name
	info.ParamsFP = ctx.Params.Fingerprint()
	info.Seed = *seed
	info.Scale = *scale
	info.Journal = *journalPath

	if *journalPath != "" {
		jn, err := journal.Open(*journalPath)
		if err != nil {
			fail("journal open failed", "path", *journalPath, "err", err)
		}
		defer jn.Close()
		ctx.Journal = jn
		if st := jn.Stats(); st.Loaded > 0 || st.Corrupt > 0 {
			log.Info("journal loaded",
				"path", *journalPath, "cells_loaded", st.Loaded, "lines_corrupt", st.Corrupt)
		}
	}
	if *chaosSpec != "" {
		cfg, err := chaos.Parse(*chaosSpec)
		if err != nil {
			fail("chaos spec invalid", "spec", *chaosSpec, "err", err)
		}
		ctx.Chaos = chaos.New(cfg)
		info.ChaosSpec = *chaosSpec
		info.ChaosSeed = cfg.Seed
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fail("trace directory", "err", err)
		}
		ctx.TraceDir = *traceDir
	}

	if *listen != "" {
		tracker := obs.NewCampaignTracker(log)
		ctx.Tracker = tracker
		if ctx.Journal != nil {
			st := ctx.Journal.Stats()
			tracker.SetJournalStats(st.Loaded, st.Corrupt)
		}
		stopWatchdog := tracker.StartWatchdog(2*time.Second, 4)
		defer stopWatchdog()
		srv := &obs.Server{Info: info, Tracker: tracker, Extra: ctx.MetricsSnapshot, Log: log}
		_, shutdown, err := srv.Serve(*listen)
		if err != nil {
			fail("introspection server", "err", err)
		}
		defer shutdown()
	}

	var stopProfiles func() error
	if *pprofPrefix != "" {
		stop, err := telemetry.StartProfiles(*pprofPrefix)
		if err != nil {
			fail("profile start failed", "err", err)
		}
		stopProfiles = stop
	}

	all := append(append([]experiment{}, experiments...), extraExperiments...)
	ran := false
	for _, e := range all {
		// Explicitly-named extras run; 'all' covers the standard set only.
		inAll := true
		for _, x := range extraExperiments {
			if e.name == x.name {
				inAll = false
			}
		}
		if (*name == "all" && inAll) || *name == e.name {
			ran = true
			ctx.Tracker.BeginPhase(e.name)
			log.Debug("experiment starting", "exp", e.name)
			if err := e.run(ctx); err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					log.Error("interrupted", "exp", e.name, "err", err)
					if *journalPath != "" {
						st := ctx.Journal.Stats()
						log.Info("completed cells are journaled — rerun with the same flags to resume",
							"journal", *journalPath,
							"cells_loaded", st.Loaded, "cells_appended", st.Appends,
							"lines_corrupt", st.Corrupt)
					}
					os.Exit(130)
				}
				fail("experiment failed", "exp", e.name, "err", err)
			}
		}
	}
	if !ran {
		fail("unknown experiment (use -list)", "exp", *name)
	}

	if stopProfiles != nil {
		if err := stopProfiles(); err != nil {
			fail("profile stop failed", "err", err)
		}
	}
	if ctx.Metrics != nil && *metricsFile != "" {
		out := os.Stdout
		if *metricsFile != "-" {
			f, err := os.Create(*metricsFile)
			if err != nil {
				fail("metrics file", "err", err)
			}
			defer f.Close()
			out = f
		}
		if err := ctx.MetricsSnapshot().WriteText(out); err != nil {
			fail("metrics write failed", "err", err)
		}
	}
}
