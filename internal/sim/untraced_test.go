package sim_test

// Differential proof for the engine: a traced run steps the
// per-instruction reference engine, which settles the capacitor after
// every instruction, while an untraced run takes the fused loops
// (cpu.RunUntraced outage-free, cpu.RunEpoch under harvest, with
// capacitor settlement batched over epochs). On every quick-set workload,
// on every scheme, under an ideal supply and under the RF-Home harvested
// trace, both must produce the same Result and NVM image down to the last
// bit. The golden digests (TestFastPathGolden) are captured through the
// traced engine, so this test extends them to the untraced path that
// production runs and benchmarks use. Any divergence — one outage fired
// an instruction early, one joule attributed differently — fails loudly.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// diffQuickSet mirrors exp's quick subset: two workloads per flavour.
var diffQuickSet = map[string]bool{
	"adpcmenc": true, "gsmdec": true, "sha": true, "susane": true,
	"dijkstra": true, "fft": true, "blowfishenc": true, "rijndaelenc": true,
}

func quickWorkloads(t testing.TB) []workloads.Workload {
	t.Helper()
	var out []workloads.Workload
	for _, w := range workloads.All() {
		if diffQuickSet[w.Name] {
			out = append(out, w)
		}
	}
	if len(out) != len(diffQuickSet) {
		t.Fatalf("quick set resolved %d of %d workloads", len(out), len(diffQuickSet))
	}
	return out
}

// compileFor compiles w for k at scale 1.
func compileFor(t testing.TB, w workloads.Workload, k arch.Kind, p config.Params) *ir.Linked {
	t.Helper()
	cres, err := core.Compile(func() *ir.Program { return w.Build(1) }, k, p)
	if err != nil {
		t.Fatalf("compile %s for %v: %v", w.Name, k, err)
	}
	return cres.Linked
}

// sourceFor returns seed 1 of the profile, or nil (outage-free) for nil.
func sourceFor(profile *trace.Profile) trace.Source {
	if profile == nil {
		return nil
	}
	return trace.New(*profile, 1)
}

// runEngine compiles w for k and runs it once with a JSONL tracer
// attached, returning the result and the raw telemetry stream.
func runEngine(t testing.TB, w workloads.Workload, k arch.Kind, profile *trace.Profile) (*sim.Result, []byte) {
	t.Helper()
	p := config.Default()
	var buf bytes.Buffer
	tr := telemetry.NewTracer(telemetry.NewJSONLSink(&buf), 0)
	res, err := sim.Run(compileFor(t, w, k, p), arch.New(k, p), sim.Options{Source: sourceFor(profile), Tracer: tr})
	if err != nil {
		t.Fatalf("traced run %s on %v: %v", w.Name, k, err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("close tracer: %v", err)
	}
	return res, buf.Bytes()
}

func TestUntracedMatchesTraced(t *testing.T) {
	profiles := map[string]*trace.Profile{
		"outage-free": nil,
		"RFHome":      func() *trace.Profile { p := trace.RFHome; return &p }(),
	}
	for _, w := range quickWorkloads(t) {
		for _, k := range arch.AllKinds() {
			for pname, profile := range profiles {
				w, k, profile := w, k, profile
				t.Run(w.Name+"/"+k.String()+"/"+pname, func(t *testing.T) {
					t.Parallel()
					traced, _ := runEngine(t, w, k, profile)

					p := config.Default()
					untraced, err := sim.Run(compileFor(t, w, k, p), arch.New(k, p), sim.Options{Source: sourceFor(profile)})
					if err != nil {
						t.Fatalf("untraced run: %v", err)
					}

					if !traced.NVM.Equal(untraced.NVM) {
						t.Errorf("NVM images differ, first byte at %#x", traced.NVM.FirstDiff(untraced.NVM))
					}
					// NVM compared above; DeepEqual would descend into its
					// unexported one-entry page cache, which legitimately
					// differs by access pattern.
					a, b := *traced, *untraced
					a.NVM, b.NVM = nil, nil
					if !reflect.DeepEqual(&a, &b) {
						t.Errorf("traced and untraced results diverge:\ntraced:\n%s\nuntraced:\n%s",
							canonicalResult(&a), canonicalResult(&b))
					}
				})
			}
		}
	}
}

// TestBatchedMatchesPrecise checks the telemetry side of the same
// differential: the event stream recorded by the per-instruction
// ("precise") stepper must be a faithful account of the run the
// epoch-batched untraced loops perform. Outage spans, recharge time,
// JIT backups, restores and the halt record are read back from the JSONL
// stream and compared with the untraced Result's counters, so a stepper
// that emitted an event for an outage the fused loop never took (or
// missed one it did) fails here even if both Results agree.
func TestBatchedMatchesPrecise(t *testing.T) {
	profiles := map[string]*trace.Profile{
		"outage-free": nil,
		"RFHome":      func() *trace.Profile { p := trace.RFHome; return &p }(),
	}
	for _, w := range quickWorkloads(t) {
		for _, k := range arch.AllKinds() {
			for pname, profile := range profiles {
				w, k, profile := w, k, profile
				t.Run(w.Name+"/"+k.String()+"/"+pname, func(t *testing.T) {
					t.Parallel()
					_, stream := runEngine(t, w, k, profile)
					events, err := telemetry.ReadJSONL(bytes.NewReader(stream))
					if err != nil {
						t.Fatalf("read telemetry: %v", err)
					}

					p := config.Default()
					batched, err := sim.Run(compileFor(t, w, k, p), arch.New(k, p), sim.Options{Source: sourceFor(profile)})
					if err != nil {
						t.Fatalf("untraced run: %v", err)
					}

					var outages, ends, backups, restores uint64
					var chargeNs int64
					for i, e := range events {
						switch e.Kind {
						case telemetry.EvOutageBegin:
							outages++
							if e.A != int64(outages) {
								t.Errorf("event %d: outage.begin index %d, want %d", i, e.A, outages)
							}
						case telemetry.EvOutageEnd:
							ends++
							if e.A != int64(ends) {
								t.Errorf("event %d: outage.end index %d, want %d", i, e.A, ends)
							}
							chargeNs += e.B
						case telemetry.EvBackup:
							backups++
						case telemetry.EvRestore:
							restores++
						}
					}
					if outages != batched.Outages || ends != batched.Outages {
						t.Errorf("stream has %d outage begins / %d ends, batched run took %d outages",
							outages, ends, batched.Outages)
					}
					if chargeNs != batched.ChargeNs {
						t.Errorf("stream recharge %d ns, batched run %d ns", chargeNs, batched.ChargeNs)
					}
					if backups != batched.Arch.BackupEvents || restores != batched.Arch.RestoreEvents {
						t.Errorf("stream has %d backups / %d restores, batched run %d / %d",
							backups, restores, batched.Arch.BackupEvents, batched.Arch.RestoreEvents)
					}
					if len(events) == 0 {
						t.Fatal("empty telemetry stream")
					}
					last := events[len(events)-1]
					if last.Kind != telemetry.EvHalt || !batched.Halted {
						t.Fatalf("stream ends with %v, batched halted=%v", last.Kind, batched.Halted)
					}
					if last.Now != batched.TimeNs || last.A != int64(batched.Counts.Executed) {
						t.Errorf("halt at %d ns after %d instrs, batched run %d ns after %d instrs",
							last.Now, last.A, batched.TimeNs, batched.Counts.Executed)
					}
				})
			}
		}
	}
}
