package sim

// Cancellation coverage: a context attached via Options.Ctx must stop
// every engine — batched, precise (the traced reference engine), and the
// outage-free fused loop — at an epoch boundary, returning a typed *CanceledError that wraps ctx.Err(),
// without perturbing uncancelled runs (the golden digests pin that).

import (
	"context"
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/trace"
)

// errAfter is a context that reports cancellation once its Err method has
// been polled n times: a deterministic way to cancel mid-run at an exact
// poll boundary, with no goroutines and no wall-clock in the test.
type errAfter struct {
	context.Context
	remaining int
}

func (c *errAfter) Err() error {
	if c.remaining > 0 {
		c.remaining--
		return nil
	}
	return context.Canceled
}

func TestCancelPreemptsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		opt  func() Options
	}{
		{"batched", func() Options { return Options{Source: trace.New(trace.RFHome, 1), Ctx: ctx} }},
		{"precise", func() Options { return Options{Source: trace.New(trace.RFHome, 1), Tracer: reference(), Ctx: ctx} }},
		{"outage-free", func() Options { return Options{Ctx: ctx} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := compiled(t, "sha", arch.SweepEmptyBit)
			_, err := Run(l, arch.New(arch.SweepEmptyBit, config.Default()), tc.opt())
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled in the chain", err)
			}
			var ce *CanceledError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *CanceledError", err)
			}
			if ce.Scheme == "" {
				t.Errorf("CanceledError missing scheme: %+v", ce)
			}
		})
	}
}

func TestCancelMidRun(t *testing.T) {
	for _, precise := range []bool{false, true} {
		name := "batched"
		if precise {
			name = "precise"
		}
		t.Run(name, func(t *testing.T) {
			l := compiled(t, "sha", arch.SweepEmptyBit)
			// Survive a few polls, then cancel: the run must be genuinely
			// under way (instructions retired) when the abort lands.
			ctx := &errAfter{Context: context.Background(), remaining: 3}
			opt := Options{Source: trace.New(trace.RFHome, 1), Ctx: ctx}
			if precise {
				opt.Tracer = reference()
			}
			_, err := Run(l, arch.New(arch.SweepEmptyBit, config.Default()), opt)
			var ce *CanceledError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *CanceledError", err)
			}
			if ce.Executed == 0 {
				t.Error("cancelled before any instruction retired — poll cadence broken")
			}
		})
	}
}

// TestNilCtxRunsUnchanged pins that leaving Options.Ctx nil keeps the
// fast paths entirely poll-free and the run completes normally.
func TestNilCtxRunsUnchanged(t *testing.T) {
	l := compiled(t, "sha", arch.SweepEmptyBit)
	res, err := Run(l, arch.New(arch.SweepEmptyBit, config.Default()), Options{})
	if err != nil || !res.Halted {
		t.Fatalf("err=%v halted=%v", err, res != nil && res.Halted)
	}
}
