// Package chaos is the fault-injection harness: deterministic, seeded
// injection of the failures an intermittently-powered experiment campaign
// actually meets — worker panics, mid-run cancellation, and journal
// truncation/corruption — so the resilience tests can assert the engine
// always ends in one of {complete, cleanly-cancelled, resumable} and never
// deadlocks or leaks goroutines.
//
// Every decision derives from a hash of (seed, cell identity, attempt
// number), never from scheduling order or time, so a chaos run replays
// exactly and a resumed run eventually drains: a cell that panicked on
// attempt n draws a fresh decision on attempt n+1.
package chaos

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config bounds the injected faults.
type Config struct {
	// Seed drives every decision; two injectors with the same seed make
	// identical per-cell choices.
	Seed int64
	// PanicProb is the probability that one cell attempt panics inside
	// its worker ([0,1]). Decisions are salted with the per-cell attempt
	// counter, so retries converge.
	PanicProb float64
	// CancelAfter cancels the armed context when this many cell attempts
	// have started (0 = never). Which cells made the cut depends on
	// worker scheduling — that nondeterminism is the point of the fault —
	// but the count itself is exact.
	CancelAfter int
	// CancelDelay postpones the injected cancellation after the trigger
	// (0 = immediate).
	CancelDelay time.Duration
}

// Injector injects the configured faults. One injector may arm many
// successive matrices; the attempt counters persist across them.
type Injector struct {
	cfg Config

	mu       sync.Mutex
	attempts map[string]uint64
	cancel   context.CancelFunc

	starts  atomic.Uint64
	panics  atomic.Uint64
	cancels atomic.Uint64
}

// New returns an injector for the config.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, attempts: map[string]uint64{}}
}

// Parse builds a Config from a comma-separated spec, the -chaos flag
// syntax: "seed=7,panic=0.05,cancel=12,delay=5ms". Unknown keys are an
// error; every key is optional.
func Parse(spec string) (Config, error) {
	cfg := Config{Seed: 1}
	if spec == "" {
		return cfg, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Config{}, fmt.Errorf("chaos: bad spec element %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "panic":
			cfg.PanicProb, err = strconv.ParseFloat(v, 64)
			if err == nil && (cfg.PanicProb < 0 || cfg.PanicProb > 1) {
				err = fmt.Errorf("probability out of [0,1]")
			}
		case "cancel":
			cfg.CancelAfter, err = strconv.Atoi(v)
		case "delay":
			cfg.CancelDelay, err = time.ParseDuration(v)
		default:
			return Config{}, fmt.Errorf("chaos: unknown spec key %q", k)
		}
		if err != nil {
			return Config{}, fmt.Errorf("chaos: spec %s=%s: %v", k, v, err)
		}
	}
	return cfg, nil
}

// InjectedPanic is the value thrown by an injected worker panic; the
// experiment layer's recover() converts it into a structured cell error.
type InjectedPanic struct {
	Workload string
	Scheme   string
	Attempt  uint64
	Seed     int64
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("chaos: injected panic (seed %d) in %s/%s attempt %d",
		p.Seed, p.Workload, p.Scheme, p.Attempt)
}

// Arm wraps ctx with the cancellation the injector may trigger and
// remembers the cancel function. The caller owns the returned context's
// lifetime as usual.
func (in *Injector) Arm(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(ctx)
	in.mu.Lock()
	in.cancel = cancel
	in.mu.Unlock()
	return ctx, cancel
}

// decide returns a uniform [0,1) draw for (seed, cell, attempt).
func decide(seed int64, cell string, attempt uint64) float64 {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(cell))
	binary.LittleEndian.PutUint64(b[:], attempt)
	h.Write(b[:])
	u := binary.LittleEndian.Uint64(h.Sum(nil)[:8])
	return float64(u>>11) / float64(1<<53)
}

// CellStart is called by each worker as a cell attempt begins; the cell
// is the workload on the scheme under power-trace seed traceSeed, so the
// seeds of one (workload, scheme) that a seed sweep runs concurrently
// keep attempt counters of their own. It may panic (InjectedPanic) and
// may trigger the armed cancellation; both decisions are deterministic in
// (seed, cell, attempt).
func (in *Injector) CellStart(workload, scheme string, traceSeed int64) {
	n := in.starts.Add(1)
	if in.cfg.CancelAfter > 0 && n == uint64(in.cfg.CancelAfter) {
		in.mu.Lock()
		cancel := in.cancel
		in.mu.Unlock()
		if cancel != nil {
			in.cancels.Add(1)
			if in.cfg.CancelDelay > 0 {
				time.AfterFunc(in.cfg.CancelDelay, cancel)
			} else {
				cancel()
			}
		}
	}
	if in.cfg.PanicProb <= 0 {
		return
	}
	cell := workload + "/" + scheme + "/" + strconv.FormatInt(traceSeed, 10)
	in.mu.Lock()
	in.attempts[cell]++
	attempt := in.attempts[cell]
	in.mu.Unlock()
	if decide(in.cfg.Seed, cell, attempt) < in.cfg.PanicProb {
		in.panics.Add(1)
		panic(InjectedPanic{Workload: workload, Scheme: scheme, Attempt: attempt, Seed: in.cfg.Seed})
	}
}

// Panics returns how many panics the injector has thrown.
func (in *Injector) Panics() uint64 { return in.panics.Load() }

// Cancels returns how many cancellations the injector has triggered.
func (in *Injector) Cancels() uint64 { return in.cancels.Load() }

// Starts returns how many cell attempts the injector has observed.
func (in *Injector) Starts() uint64 { return in.starts.Load() }

// CorruptFile damages a journal (or any) file deterministically for
// crash-recovery tests: depending on the seed it truncates the file at a
// random offset (a crash mid-append) or flips one byte (bit rot). An
// empty file is left alone.
func CorruptFile(path string, seed int64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(raw) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	if rng.Intn(2) == 0 {
		// Truncate somewhere strictly inside the file.
		cut := 1 + rng.Intn(len(raw))
		return os.WriteFile(path, raw[:cut], 0o644)
	}
	pos := rng.Intn(len(raw))
	raw[pos] ^= 0x20
	return os.WriteFile(path, raw, 0o644)
}
