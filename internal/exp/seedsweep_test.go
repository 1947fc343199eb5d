package exp

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/arch"
	"repro/internal/journal"
	"repro/internal/trace"
)

// sweepCtx is a one-workload sweep configuration small enough for tests.
func sweepCtx(seeds int) *Context {
	c := DefaultContext()
	c.Only = []string{"sha"}
	c.Seeds = seeds
	return c
}

// TestSeedSweepMatchesScalarMatrix pins the sweep's per-seed results to
// the scalar matrix path: for every seed, the sweep's speedup sample must
// equal the single-seed matrix run under that seed, because each sweep
// lane is a scalar run.
func TestSeedSweepMatchesScalarMatrix(t *testing.T) {
	const seeds = 3
	c := sweepCtx(seeds)
	r, err := c.SeedSweep(trace.RFHome, []arch.Kind{arch.SweepEmptyBit})
	if err != nil {
		t.Fatal(err)
	}
	sc := r.Get("sha", arch.SweepEmptyBit)
	if sc.N != seeds {
		t.Fatalf("cell aggregated %d seeds, want %d", sc.N, seeds)
	}

	var spd []float64
	for s := int64(1); s <= seeds; s++ {
		mc := DefaultContext()
		mc.Only = []string{"sha"}
		mc.Seed = s
		m, err := mc.runMatrix([]arch.Kind{arch.SweepEmptyBit}, &[]trace.Profile{trace.RFHome}[0], mc.Params)
		if err != nil {
			t.Fatal(err)
		}
		spd = append(spd, m.Speedup("sha", arch.SweepEmptyBit))
	}
	mean := (spd[0] + spd[1] + spd[2]) / 3
	if diff := sc.Mean - mean; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("sweep mean %.15g != scalar per-seed mean %.15g", sc.Mean, mean)
	}
	if sc.Half <= 0 {
		t.Fatalf("CI half-width %g, want > 0 for %d distinct seeds", sc.Half, seeds)
	}
}

// TestSeedSweepPerSeedErrors asserts satellite semantics: a failing
// multi-seed cell reports one typed *CellError per seed, each carrying
// its own seed identity — not one blended error for the cell. The
// failure here is a journal whose file is already closed, so every
// completed seed's durability append fails independently.
func TestSeedSweepPerSeedErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	jn, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	jn.Close() // sabotage: appends now fail, lookups still work

	c := sweepCtx(2)
	c.Journal = jn
	_, err = c.SeedSweep(trace.RFHome, []arch.Kind{arch.SweepEmptyBit})
	if err == nil {
		t.Fatal("sweep with a broken journal returned nil error")
	}

	// Flatten the joined error and index the CellErrors by identity.
	seen := map[string]map[int64]bool{}
	var walk func(error)
	walk = func(e error) {
		var ce *CellError
		if errors.As(e, &ce) {
			if seen[ce.Scheme] == nil {
				seen[ce.Scheme] = map[int64]bool{}
			}
			seen[ce.Scheme][ce.Seed] = true
		}
		if mu, ok := e.(interface{ Unwrap() []error }); ok {
			for _, sub := range mu.Unwrap() {
				walk(sub)
			}
		}
	}
	walk(err)
	for _, scheme := range []string{"NVP", arch.SweepEmptyBit.String()} {
		if len(seen[scheme]) != 2 || !seen[scheme][1] || !seen[scheme][2] {
			t.Fatalf("scheme %s reported seeds %v, want individual errors for seeds 1 and 2 (full error: %v)",
				scheme, seen[scheme], err)
		}
	}
}

// TestSeedSweepCanceledCollapses pins the complementary behavior: under
// cancellation the interrupted seeds collapse into one summary error
// (errors.Is-able as context.Canceled) instead of seeds× noise.
func TestSeedSweepCanceledCollapses(t *testing.T) {
	c := sweepCtx(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.Ctx = ctx

	_, err := c.SeedSweep(trace.RFHome, []arch.Kind{arch.SweepEmptyBit})
	if err == nil {
		t.Fatal("pre-canceled sweep returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, Canceled) = false: %v", err)
	}
}

// TestSeedSweepJournalResume proves per-seed durability: a sweep journals
// one cell per (workload, scheme, seed), and a wider rerun reuses every
// proven seed while appending only the new ones.
func TestSeedSweepJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	jn, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c := sweepCtx(2)
	c.Journal = jn
	r1, err := c.SeedSweep(trace.RFHome, []arch.Kind{arch.SweepEmptyBit})
	if err != nil {
		t.Fatal(err)
	}
	appended := jn.Stats().Appends
	if appended != 4 { // (NVP + SweepEmptyBit) × 2 seeds
		t.Fatalf("first sweep journaled %d cells, want 4", appended)
	}
	jn.Close()

	jn2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.Close()
	c2 := sweepCtx(3)
	c2.Journal = jn2
	r2, err := c2.SeedSweep(trace.RFHome, []arch.Kind{arch.SweepEmptyBit})
	if err != nil {
		t.Fatal(err)
	}
	st := jn2.Stats()
	if st.Loaded != 4 || st.Appends != 2 {
		t.Fatalf("resume loaded %d / appended %d cells, want 4 / 2", st.Loaded, st.Appends)
	}
	// Seeds 1-2 were reconstructed from the journal; the 3-seed mean must
	// still be consistent with the 2-seed mean (same underlying samples).
	a := r1.Get("sha", arch.SweepEmptyBit)
	b := r2.Get("sha", arch.SweepEmptyBit)
	if a.N != 2 || b.N != 3 {
		t.Fatalf("seed counts %d/%d, want 2/3", a.N, b.N)
	}
}
