package sim

// Boundary coverage for the batched-accounting engine: threshold
// crossings under a steadily draining supply (where every epoch ends in
// the per-instruction fallback window and the trigger must fire at the
// exact instruction), and the forward-progress guard on configurations
// whose energy window cannot cover any work.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// reference selects the per-instruction reference engine: a traced run
// steps it, and a discard sink keeps the trace out of the way.
func reference() *telemetry.Tracer {
	return telemetry.NewTracer(telemetry.DiscardSink{}, 0)
}

// runBoth executes the same configuration under the batched and
// reference engines and fails the test on any observable divergence.
func runBoth(t *testing.T, name string, kind arch.Kind, p config.Params, src func() trace.Source) (*Result, *Result) {
	t.Helper()
	l := compiled(t, name, kind)
	fast, errF := Run(l, arch.New(kind, p), Options{Source: src()})
	ref, errP := Run(compiled(t, name, kind), arch.New(kind, p), Options{Source: src(), Tracer: reference()})
	if (errF == nil) != (errP == nil) {
		t.Fatalf("engines disagree on error: batched=%v precise=%v", errF, errP)
	}
	if errF != nil {
		return fast, ref
	}
	if fast.Outages != ref.Outages || fast.TimeNs != ref.TimeNs ||
		fast.Counts.Executed != ref.Counts.Executed || fast.Ledger != ref.Ledger {
		t.Errorf("batched/precise diverge:\n batched outages=%d time=%d exec=%d\n precise outages=%d time=%d exec=%d",
			fast.Outages, fast.TimeNs, fast.Counts.Executed,
			ref.Outages, ref.TimeNs, ref.Counts.Executed)
	}
	return fast, ref
}

// TestVBackupCrossingExact drains a JIT scheme under a constant weak
// supply: the voltage ramps down through VBackup over and over, and the
// backup must trip at the identical instruction in both engines.
func TestVBackupCrossingExact(t *testing.T) {
	src := func() trace.Source { return &trace.Constant{P: 0.5e-3} }
	res, _ := runBoth(t, "adpcmenc", arch.NVSRAM, config.Default(), src)
	if res.Outages == 0 {
		t.Fatal("constant-drain run produced no outages — threshold crossing untested")
	}
	if res.Arch.BackupEvents != res.Outages {
		t.Errorf("backups=%d outages=%d", res.Arch.BackupEvents, res.Outages)
	}
}

// TestVminCrossingExact does the same for the hard Vmin brown-out on
// SweepCache, which runs with no backup threshold at all.
func TestVminCrossingExact(t *testing.T) {
	src := func() trace.Source { return &trace.Constant{P: 0.5e-3} }
	res, _ := runBoth(t, "adpcmenc", arch.SweepEmptyBit, config.Default(), src)
	if res.Outages == 0 {
		t.Fatal("constant-drain run produced no outages")
	}
	if res.Arch.BackupEvents != 0 {
		t.Error("SweepCache performed a JIT backup")
	}
}

// TestRFBurstCrossings covers the segment-spanning case: a bursty RF
// source forces epochs to close at segment boundaries, with crossings in
// both the burst (charging) and idle (draining) phases.
func TestRFBurstCrossings(t *testing.T) {
	src := func() trace.Source { return trace.New(trace.RFOffice, 7) }
	res, _ := runBoth(t, "sha", arch.NVP, config.Default(), src)
	if res.Outages == 0 {
		t.Fatal("RF run produced no outages")
	}
}

// TestZeroProgressGuard misconfigures SweepCache so its brown-out floor
// sits above the restore threshold: every restore browns out again before
// one instruction retires. Both engines must report the forward-progress
// error rather than power-cycling forever.
func TestZeroProgressGuard(t *testing.T) {
	p := config.Default()
	p.SweepVmin = 3.4 // above SweepCache's 3.3 restore threshold
	l := compiled(t, "sha", arch.SweepEmptyBit)
	for _, precise := range []bool{false, true} {
		opt := Options{Source: &trace.Constant{P: 0.5e-3}}
		if precise {
			opt.Tracer = reference()
		}
		_, err := Run(l, arch.New(arch.SweepEmptyBit, p), opt)
		if err == nil || !strings.Contains(err.Error(), "no forward progress") {
			t.Errorf("precise=%v: err = %v, want forward-progress guard", precise, err)
			continue
		}
		// The guard is a typed error: errors.Is matches the sentinel and
		// errors.As recovers the scheme/cycle context.
		if !errors.Is(err, ErrNoProgress) {
			t.Errorf("precise=%v: errors.Is(err, ErrNoProgress) = false for %v", precise, err)
		}
		var npe *NoProgressError
		if !errors.As(err, &npe) {
			t.Errorf("precise=%v: errors.As(*NoProgressError) = false for %v", precise, err)
		} else {
			if npe.Scheme == "" || npe.Outages == 0 {
				t.Errorf("precise=%v: NoProgressError missing context: %+v", precise, npe)
			}
		}
	}
}
