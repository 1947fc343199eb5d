// Command benchcheck is the benchmark-regression gate: it diffs a fresh
// benchjson document against the committed baseline (BENCH_engine.json)
// on one metric and fails when any benchmark regresses beyond the
// tolerance. scripts/bench_check.sh wires the fresh run; CI runs it with
// -warn-only so shared-runner noise annotates instead of failing.
//
// Usage:
//
//	go run ./cmd/benchcheck -baseline BENCH_engine.json -current fresh.json
//	go run ./cmd/benchcheck -baseline BENCH_engine.json -current fresh.json -warn-only
//
// The default metric, sim-instrs/s, is higher-better; pass
// -higher-better=false for latency metrics like ns/op. Each line also
// prints the min..max sample range behind both medians when the
// documents carry one (benchjson over -count N output).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"repro/internal/benchfmt"
	"repro/internal/obs"
)

func main() {
	baseline := flag.String("baseline", "BENCH_engine.json", "baseline benchjson document")
	current := flag.String("current", "", "fresh benchjson document to gate (required)")
	metric := flag.String("metric", "sim-instrs/s", "metric to compare")
	tolerance := flag.Float64("tolerance", 0.15, "allowed relative regression (0.15 = 15%)")
	higherBetter := flag.Bool("higher-better", true, "larger metric values are better (false for ns/op-style metrics)")
	warnOnly := flag.Bool("warn-only", false, "report regressions as GitHub warning annotations and exit 0 (CI-noise mode)")
	logfmt := flag.String("logfmt", "text", "log format: text|json")
	verbose := flag.Bool("v", false, "debug logging")
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logfmt, *verbose)
	if err != nil {
		slog.Error("benchcheck: bad -logfmt", "err", err)
		os.Exit(2)
	}
	if *current == "" {
		log.Error("missing -current document")
		os.Exit(2)
	}
	base, err := benchfmt.ReadFile(*baseline)
	if err != nil {
		log.Error("baseline unreadable", "err", err)
		os.Exit(2)
	}
	cur, err := benchfmt.ReadFile(*current)
	if err != nil {
		log.Error("current unreadable", "err", err)
		os.Exit(2)
	}

	deltas, err := benchfmt.Compare(base, cur, *metric, *tolerance, *higherBetter)
	if err != nil {
		// Missing benchmarks gate too: a comparison that silently skips
		// entries would pass on an empty run.
		log.Error("comparison incomplete", "err", err)
		if !*warnOnly {
			os.Exit(1)
		}
		fmt.Printf("::warning title=benchcheck::%v\n", err)
		if deltas == nil {
			os.Exit(0)
		}
	}

	regressed := 0
	for _, d := range deltas {
		attrs := []any{
			"bench", d.Name, "metric", *metric,
			"baseline", d.Base, "current", d.Current, "change", d.Change(),
		}
		// The sample spread behind each median: a change inside it is
		// noise on this host, whatever the bound says.
		if d.BaseRange != "" {
			attrs = append(attrs, "baseline_range", d.BaseRange)
		}
		if d.CurRange != "" {
			attrs = append(attrs, "current_range", d.CurRange)
		}
		if d.Regressed {
			regressed++
			log.Warn("regression", attrs...)
			if *warnOnly {
				fmt.Printf("::warning title=bench regression::%s %s %s (baseline %g, current %g, tolerance %.0f%%)\n",
					d.Name, *metric, d.Change(), d.Base, d.Current, *tolerance*100)
			}
		} else {
			log.Info("ok", attrs...)
		}
	}
	log.Info("benchcheck summary",
		"baseline", *baseline,
		"baseline_commit", base.Context["git-commit"],
		"baseline_engine", base.Context["engine"],
		"current_commit", cur.Context["git-commit"],
		"compared", len(deltas), "regressed", regressed,
		"tolerance", *tolerance)
	if regressed > 0 && !*warnOnly {
		os.Exit(1)
	}
}
