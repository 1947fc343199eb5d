// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so benchmark runs can be archived and diffed by CI (the
// BENCH_engine.json artifact) without scraping the text format twice.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkEngine . | go run ./cmd/benchjson -o BENCH_engine.json
//
// Non-benchmark lines (goos/goarch/pkg headers, PASS/ok trailers) are
// carried in the context block, together with the attribution fields a
// regression gate needs — git commit, sim.EngineVersion, GOMAXPROCS —
// and every `BenchmarkX  N  v unit  v unit...` line becomes one result
// entry with all its metrics. cmd/benchcheck diffs two such documents.
package main

import (
	"flag"
	"log/slog"
	"os"
	"os/exec"
	"runtime/debug"
	"strings"

	"repro/internal/benchfmt"
	"repro/internal/obs"
	"repro/internal/sim"
)

// gitCommit resolves the current commit: the VCS stamp the go toolchain
// embeds when it has one, else a direct `git rev-parse` (marked -dirty
// when `git status --porcelain` lists changes, as the stamp would be),
// else "unknown" (benchjson must keep working outside a checkout).
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "-dirty"
	}
	return rev
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	logfmt := flag.String("logfmt", "text", "log format: text|json")
	verbose := flag.Bool("v", false, "debug logging")
	flag.Parse()
	log, err := obs.NewLogger(os.Stderr, *logfmt, *verbose)
	if err != nil {
		slog.Error("benchjson: bad -logfmt", "err", err)
		os.Exit(2)
	}

	doc, err := benchfmt.Parse(os.Stdin)
	if err != nil {
		log.Error("read failed", "err", err)
		os.Exit(1)
	}
	// Attribution: make every archived entry answerable to "which code,
	// which engine model, how many procs".
	doc.Context["git-commit"] = gitCommit()
	doc.Context["engine"] = sim.EngineVersion
	// The benchmarks' own GOMAXPROCS, read off their names (-cpu 1
	// leaves no suffix), not this converter's.
	if procs := doc.GOMAXPROCS(); procs != "" {
		doc.Context["gomaxprocs"] = procs
	}
	log.Debug("parsed benchmarks",
		"results", len(doc.Results), "commit", doc.Context["git-commit"],
		"engine", doc.Context["engine"])

	enc, err := doc.Encode()
	if err != nil {
		log.Error("encode failed", "err", err)
		os.Exit(1)
	}
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Error("write failed", "path", *out, "err", err)
		os.Exit(1)
	}
}
