package sim_test

// Golden fast-path proof: the memory-hierarchy fast paths (SoA cache,
// indexed persist-buffer search, WBI-driven dirty sweeps, generation-tagged
// invalidation) are pure functional-lookup optimizations — the charged
// latency/energy model must stay bit-for-bit identical. This test pins a
// SHA-256 digest of the Result (every counter, every ledger joule in hex
// float form, the final NVM image) plus the full telemetry stream for all
// 8 schemes x 8 quick workloads x {outage-free, RF-Home}, captured before
// the fast paths landed. Any drift — one stall nanosecond, one reordered
// flush entry, one differently-rounded joule — changes a digest.
//
// Regenerate (only for deliberate model changes) with:
//
//	UPDATE_GOLDEN=1 go test ./internal/sim -run TestFastPathGolden

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

const goldenPath = "testdata/fastpath_golden.json"

// hexFloat renders f exactly (hexadecimal mantissa), so digests are
// sensitive to last-bit energy drift.
func hexFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

func writeHist(b *bytes.Buffer, name string, h *stats.Hist) {
	if h == nil {
		fmt.Fprintf(b, "%s=nil\n", name)
		return
	}
	fmt.Fprintf(b, "%s n=%d sum=%s overflow=%d buckets=%v\n",
		name, h.N, hexFloat(h.Sum), h.Overflow, h.Buckets)
}

// canonicalResult renders every observable field of a Result in a fixed
// order. Pointer-typed fields (hists, NVM) are rendered by content.
func canonicalResult(r *sim.Result) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "scheme=%s halted=%v\n", r.Scheme, r.Halted)
	fmt.Fprintf(&b, "time=%d run=%d charge=%d restore=%d outages=%d\n",
		r.TimeNs, r.RunNs, r.ChargeNs, r.RestoreNs, r.Outages)
	fmt.Fprintf(&b, "counts=%+v\n", r.Counts)
	fmt.Fprintf(&b, "ledger compute=%s nvm=%s persist=%s backup=%s restore=%s sleep=%s\n",
		hexFloat(r.Ledger.Compute), hexFloat(r.Ledger.NVM), hexFloat(r.Ledger.Persist),
		hexFloat(r.Ledger.Backup), hexFloat(r.Ledger.Restore), hexFloat(r.Ledger.Sleep))
	a := r.Arch
	fmt.Fprintf(&b, "arch tp=%d twait=%d regions=%d searches=%d bypasses=%d hits=%d\n",
		a.TpNs, a.TwaitNs, a.RegionsExecuted, a.BufferSearches, a.BufferBypasses, a.BufferHits)
	fmt.Fprintf(&b, "arch waw=%d fence=%d clwb=%d backups=%d restores=%d lines=%d replayed=%d redone=%d\n",
		a.WAWStallNs, a.FenceStallNs, a.ClwbStallNs, a.BackupEvents, a.RestoreEvents,
		a.LinesBackedUp, a.ReplayedStores, a.RedoneDrains)
	writeHist(&b, "storesPerRegion", a.StoresPerRegion)
	fmt.Fprintf(&b, "cache hits=%d misses=%d dirtyEvictions=%d\n",
		r.CacheHits, r.CacheMisses, r.DirtyEvictions)
	fmt.Fprintf(&b, "nvm reads=%d writes=%d lineReads=%d lineWrites=%d\n",
		r.NVMReads, r.NVMWrites, r.NVMLineReads, r.NVMLineWrites)
	writeHist(&b, "regionSizes", r.RegionSizes)
	if r.NVM != nil {
		fmt.Fprintf(&b, "nvmImage=%x\n", r.NVM.ContentHash())
	}
	return b.Bytes()
}

func goldenDigest(res *sim.Result, traceBytes []byte) string {
	h := sha256.New()
	h.Write(canonicalResult(res))
	h.Write([]byte{0})
	h.Write(traceBytes)
	return hex.EncodeToString(h.Sum(nil))
}

// TestFastPathGolden runs the traced (reference) engine over the full
// quick matrix and compares each run's digest against the pre-fast-path
// capture; TestUntracedMatchesTraced carries the proof to the untraced
// fused loops.
func TestFastPathGolden(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""

	want := map[string]string{}
	if !update {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("golden file missing (run with UPDATE_GOLDEN=1 to create): %v", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("golden file corrupt: %v", err)
		}
	}

	var mu sync.Mutex
	got := map[string]string{}

	profiles := map[string]*trace.Profile{
		"outage-free": nil,
		"RFHome":      func() *trace.Profile { p := trace.RFHome; return &p }(),
	}
	for _, w := range quickWorkloads(t) {
		for _, k := range arch.AllKinds() {
			for pname, profile := range profiles {
				w, k, profile, pname := w, k, profile, pname
				key := w.Name + "/" + k.String() + "/" + pname
				t.Run(key, func(t *testing.T) {
					t.Parallel()
					res, traceBytes := runEngine(t, w, k, profile)
					d := goldenDigest(res, traceBytes)
					mu.Lock()
					got[key] = d
					mu.Unlock()
					if !update {
						if wd, ok := want[key]; !ok {
							t.Errorf("no golden digest for %s", key)
						} else if wd != d {
							t.Errorf("digest drift for %s:\n  golden %s\n  got    %s", key, wd, d)
						}
					}
				})
			}
		}
	}

	if update {
		t.Cleanup(func() {
			keys := make([]string, 0, len(got))
			for k := range got {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			ordered := make(map[string]string, len(got))
			for _, k := range keys {
				ordered[k] = got[k]
			}
			raw, err := json.MarshalIndent(ordered, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %d golden digests to %s", len(got), goldenPath)
		})
	}
}
