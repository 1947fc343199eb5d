package chaos

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestParse(t *testing.T) {
	cfg, err := Parse("seed=7,panic=0.05,cancel=12,delay=5ms")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 7, PanicProb: 0.05, CancelAfter: 12, CancelDelay: 5 * time.Millisecond}
	if cfg != want {
		t.Errorf("cfg = %+v, want %+v", cfg, want)
	}
	if cfg, err := Parse(""); err != nil || cfg.Seed != 1 {
		t.Errorf("empty spec: cfg=%+v err=%v", cfg, err)
	}
	for _, bad := range []string{"panic=1.5", "panic=-0.1", "frobnicate=1", "seed", "seed=x"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// startOutcome records whether one CellStart attempt panicked.
func startOutcome(in *Injector, workload, scheme string, traceSeed int64) (panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(InjectedPanic); !ok {
				panic(v) // only injected panics are expected here
			}
			panicked = true
		}
	}()
	in.CellStart(workload, scheme, traceSeed)
	return false
}

// TestPanicDeterminism replays the same cell sequence through two
// injectors with the same seed and requires identical decisions; a third
// injector with a different seed must diverge somewhere over 64 cells.
func TestPanicDeterminism(t *testing.T) {
	pattern := func(seed int64) []bool {
		in := New(Config{Seed: seed, PanicProb: 0.5})
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, startOutcome(in, "wl"+string(rune('a'+i%8)), "scheme"+string(rune('0'+i/8)), 1))
		}
		return out
	}
	a, b, c := pattern(7), pattern(7), pattern(8)
	same := func(x, y []bool) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed produced different panic patterns")
	}
	if same(a, c) {
		t.Error("different seeds produced identical 64-cell patterns")
	}
	hits := 0
	for _, p := range a {
		if p {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Errorf("prob 0.5 over 64 cells hit %d times — draw looks degenerate", hits)
	}
}

// TestSeedOrderIndependent: the seeds of one (workload, scheme), which a
// seed sweep runs concurrently in any order, draw the same decisions
// whatever order their attempts start in.
func TestSeedOrderIndependent(t *testing.T) {
	a, b := New(Config{Seed: 7, PanicProb: 0.5}), New(Config{Seed: 7, PanicProb: 0.5})
	want := map[int64]bool{}
	for s := int64(1); s <= 16; s++ {
		want[s] = startOutcome(a, "sha", "sweep-eb", s)
	}
	for s := int64(16); s >= 1; s-- {
		if got := startOutcome(b, "sha", "sweep-eb", s); got != want[s] {
			t.Errorf("seed %d: panicked=%v in reverse order, %v in order", s, got, want[s])
		}
	}
}

// TestAttemptSalting pins the convergence property the resume loop needs:
// a cell that panics on one attempt draws fresh on the next, so repeated
// retries of the same cell eventually pass even at high panic probability.
func TestAttemptSalting(t *testing.T) {
	in := New(Config{Seed: 3, PanicProb: 0.9})
	for attempt := 1; ; attempt++ {
		if attempt > 200 {
			t.Fatal("cell never passed in 200 attempts — attempt salting broken")
		}
		if !startOutcome(in, "sha", "sweep-eb", 1) {
			break
		}
	}
}

func TestCancelAfter(t *testing.T) {
	in := New(Config{Seed: 1, CancelAfter: 3})
	ctx, cancel := in.Arm(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		in.CellStart("w", "s", 1)
		if ctx.Err() != nil {
			t.Fatalf("cancelled after %d starts, want 3", i+1)
		}
	}
	in.CellStart("w", "s", 1)
	if ctx.Err() == nil {
		t.Fatal("not cancelled after the configured number of starts")
	}
	if in.Cancels() != 1 || in.Starts() != 3 {
		t.Errorf("cancels=%d starts=%d", in.Cancels(), in.Starts())
	}
}

func TestCorruptFile(t *testing.T) {
	dir := t.TempDir()
	orig := bytes.Repeat([]byte(`{"k":"v"}`+"\n"), 64)
	for seed := int64(0); seed < 4; seed++ {
		p := filepath.Join(dir, "f")
		if err := os.WriteFile(p, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := CorruptFile(p, seed); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(after, orig) {
			t.Errorf("seed %d: file unchanged", seed)
		}
		// Replaying the same seed on the same content damages identically.
		os.WriteFile(p, orig, 0o644)
		CorruptFile(p, seed)
		again, _ := os.ReadFile(p)
		if !bytes.Equal(after, again) {
			t.Errorf("seed %d: corruption not deterministic", seed)
		}
	}
	empty := filepath.Join(dir, "empty")
	os.WriteFile(empty, nil, 0o644)
	if err := CorruptFile(empty, 1); err != nil {
		t.Fatal(err)
	}
	if st, _ := os.Stat(empty); st.Size() != 0 {
		t.Error("empty file was touched")
	}
}
