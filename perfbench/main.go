// Command perfbench is the repository benchmark. One run executes one
// named workload for a fixed number of seconds, checks every output it
// produces, and prints, as the last line of standard output, one JSON
// object with the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1). See README.md beside this file for the workloads, the
// metric-to-layer table and how to run it.
//
//	go run . -workload matrix -seed 1 -seconds 10 -trace 0
//
// Every layer is measured from outside: the benchmark times its own calls
// into each module's public functions and never modifies the program.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"time"
)

// setupReps is how many times a workload builds its set-up state in one
// run; setup_s reports the median. serve-zipf, whose set-up simulates
// and replays a whole corpus, builds it fewer times.
const (
	setupReps      = 5
	serveSetupReps = 3
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run hands back to main.
type report struct {
	Attempted int
	Failed    int
	Metrics   map[string]metric
	// Info lines are printed before the result line: the results
	// digest, sample counts, tier shares and other context.
	Info []string
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *report) info(format string, args ...any) {
	r.Info = append(r.Info, fmt.Sprintf(format, args...))
}

// check counts one output check; a false ok is a failure, described on
// standard error.
func (r *report) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// runConfig is one run's command line.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Dir is the run's scratch directory (journals, corpus files); it is
	// removed when the run ends.
	Dir string
	// OutDir receives the traced run's Chrome trace file.
	OutDir string
}

var workloadsByName = map[string]func(*runConfig, *recorder) (*report, error){
	"matrix":       runMatrix,
	"serve-zipf":   runServeZipf,
	"lease-resume": runLeaseResume,
}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: matrix, serve-zipf or lease-resume")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&cfg.OutDir, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for the traced run's Chrome trace")
	flag.Parse()
	cfg.Trace = traceFlag == 1
	if err := run(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg *runConfig) error {
	fn, ok := workloadsByName[cfg.Workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	// The service and coordinator log through slog; their per-cell
	// chatter is noise here.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.OutDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.Dir = dir

	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	rep, err := fn(cfg, rec)
	if err != nil {
		return err
	}
	if cfg.Trace {
		rep.info("self time per layer (s): %s", rec.selfTimes())
		path := filepath.Join(cfg.OutDir, fmt.Sprintf("%s-seed%d.trace.json", cfg.Workload, cfg.Seed))
		if err := rec.writeChrome(path); err != nil {
			return err
		}
		rep.info("chrome trace (open in Perfetto): %s (%d spans)", path, len(rec.snapshot()))
	}
	for _, l := range rep.Info {
		fmt.Println("# " + l)
	}
	return printResult(os.Stdout, rep)
}

// printResult writes the single result line the benchmark contract asks
// for.
func printResult(w io.Writer, rep *report) error {
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v: too little work measured", name, m.Value)
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, rep.Metrics}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(raw))
	return err
}

// timedLoop calls step until d has elapsed (a step is never cut short)
// and returns the summed step count and the elapsed time.
func timedLoop(d time.Duration, step func() (int, error)) (int, time.Duration, error) {
	start := time.Now()
	total := 0
	for time.Since(start) < d {
		n, err := step()
		if err != nil {
			return total, time.Since(start), err
		}
		total += n
	}
	return total, time.Since(start), nil
}

// alternate shares the window between untraced and traced slices of the
// same work, taking turns so neither side gets the warmer half, and
// returns each side's throughput. Each side runs at least once.
func alternate(d time.Duration, slice func(traced bool) (int, time.Duration, error)) (off, on float64, err error) {
	var cells [2]int
	var spent [2]time.Duration
	start := time.Now()
	for side := 0; time.Since(start) < d || cells[0] == 0 || cells[1] == 0; side ^= 1 {
		n, e, err := slice(side == 1)
		if err != nil {
			return 0, 0, err
		}
		cells[side] += n
		spent[side] += e
	}
	return float64(cells[0]) / spent[0].Seconds(), float64(cells[1]) / spent[1].Seconds(), nil
}

// window is the measured window the -seconds flag asks for.
func (c *runConfig) window() time.Duration { return time.Duration(c.Seconds * float64(time.Second)) }
