package store_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// cellN builds a distinct cell identity per n; the key space the torture
// tests overlap on.
func cellN(n int) journal.Cell {
	return journal.Cell{
		Workload: fmt.Sprintf("wl%03d", n), Scale: 1, Scheme: "Sweep-EmptyBit",
		Profile: "RFHome", Seed: int64(n),
		ParamsFP: "deadbeefdeadbeefdeadbeefdeadbeef", Engine: sim.EngineVersion,
	}
}

// recN builds a deterministic synthetic record per n — the store's
// contract is content-addressed caching, not simulation, so the tests
// can use cheap records with distinctive fields.
func recN(n int) *journal.Record {
	return &journal.Record{
		Scheme: "Sweep-EmptyBit", Halted: true,
		TimeNs: int64(1000 + n), RunNs: int64(900 + n),
		Outages: uint64(n), CacheHits: uint64(n * 7),
	}
}

func openStore(t *testing.T, path string, memCap int) *store.Store {
	t.Helper()
	s, err := store.Open(path, memCap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestTiers walks one cell through the three tiers: computed on first
// request, memory on the second, disk (after a cold restart) on the
// third — with byte-identical records and digests throughout.
func TestTiers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	s := openStore(t, path, 0)
	c := cellN(1)

	computes := 0
	compute := func(context.Context) (*journal.Record, error) {
		computes++
		return recN(1), nil
	}

	rec1, tier, err := s.GetOrCompute(context.Background(), c, compute)
	if err != nil || tier != store.TierNone || computes != 1 {
		t.Fatalf("first request: tier=%v err=%v computes=%d", tier, err, computes)
	}
	rec2, tier, err := s.GetOrCompute(context.Background(), c, compute)
	if err != nil || tier != store.TierMemory || computes != 1 {
		t.Fatalf("second request: tier=%v err=%v computes=%d", tier, err, computes)
	}
	if rec2.Digest() != rec1.Digest() {
		t.Fatal("memory tier served a different record")
	}
	// The memory hit must not have touched the disk tier.
	if st := s.Stats(); st.Disk.Hits != 0 {
		t.Fatalf("memory hit consulted disk: %+v", st)
	}
	s.Close()

	// Cold restart: fresh store over the same journal path.
	s2 := openStore(t, path, 0)
	rec3, tier, err := s2.GetOrCompute(context.Background(), c, compute)
	if err != nil || tier != store.TierDisk || computes != 1 {
		t.Fatalf("post-restart request: tier=%v err=%v computes=%d", tier, err, computes)
	}
	a, _ := json.Marshal(rec1)
	b, _ := json.Marshal(rec3)
	if !bytes.Equal(a, b) {
		t.Fatal("disk tier record not byte-identical to the computed one")
	}
	// Promoted: the next request is a memory hit.
	if _, tier, _ := s2.GetOrCompute(context.Background(), c, compute); tier != store.TierMemory {
		t.Fatalf("disk hit not promoted to memory: tier=%v", tier)
	}

	// Eviction order: in a memory-only store of cap 2, a hit refreshes
	// its entry, so a third insert evicts the least recently used cell.
	m := openStore(t, "", 2)
	get := func(n int) store.Tier {
		t.Helper()
		_, tier, err := m.GetOrCompute(context.Background(), cellN(n),
			func(context.Context) (*journal.Record, error) { return recN(n), nil })
		if err != nil {
			t.Fatalf("cell %d: %v", n, err)
		}
		return tier
	}
	get(1)
	get(2)
	if tier := get(1); tier != store.TierMemory {
		t.Fatalf("cell 1 before eviction: tier=%v, want memory", tier)
	}
	get(3) // evicts cell 2, the least recently used
	if _, _, ok := m.Lookup(cellN(2)); ok {
		t.Error("cell 2 survived eviction; the LRU entry should have gone")
	}
	for _, n := range []int{1, 3} {
		if _, tier, ok := m.Lookup(cellN(n)); !ok || tier != store.TierMemory {
			t.Errorf("cell %d evicted (ok=%v tier=%v); only cell 2 should have gone", n, ok, tier)
		}
	}
	if st := m.Stats(); st.MemEntries != 2 {
		t.Errorf("memory tier holds %d entries, want its cap 2", st.MemEntries)
	}
}

// TestFollowerInAppendWindowCollapses parks a leader after its durable
// journal append but before its memory insert. A request arriving in
// that window finds the record on disk, yet must collapse onto the
// leader's flight: served by the leader, counted as a dedup collapse,
// never as a disk hit.
func TestFollowerInAppendWindowCollapses(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "cells.jsonl"), 0)
	appended := make(chan struct{})
	release := make(chan struct{})
	store.SetAfterAppend(s, func() {
		close(appended)
		<-release
	})

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrCompute(context.Background(), cellN(1),
			func(context.Context) (*journal.Record, error) { return recN(1), nil })
		leaderDone <- err
	}()
	<-appended

	type served struct {
		rec  *journal.Record
		tier store.Tier
		err  error
	}
	followerDone := make(chan served, 1)
	go func() {
		rec, tier, err := s.GetOrCompute(context.Background(), cellN(1),
			func(context.Context) (*journal.Record, error) {
				t.Error("follower must not compute")
				return nil, errors.New("unreachable")
			})
		followerDone <- served{rec, tier, err}
	}()
	// Wait until the follower has been accounted to some bucket; with the
	// leader parked it cannot have been served from memory.
	for {
		st := s.Stats()
		if st.DedupCollapses+st.DiskHits+st.MemHits > 0 {
			if st.DedupCollapses != 1 || st.DiskHits != 0 || st.MemHits != 0 {
				t.Fatalf("follower in the append window: dedup %d, disk %d, mem %d; want one dedup collapse",
					st.DedupCollapses, st.DiskHits, st.MemHits)
			}
			break
		}
		runtime.Gosched()
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	got := <-followerDone
	if got.err != nil || got.tier != store.TierNone || got.rec.Digest() != recN(1).Digest() {
		t.Fatalf("follower: tier=%v err=%v, want the leader's record", got.tier, got.err)
	}
}

// TestSingleflightExactlyOnce: many concurrent requests per key, one
// simulation per key — the dedup invariant the service's cost model
// rests on.
func TestSingleflightExactlyOnce(t *testing.T) {
	const keys, callers = 8, 12
	s := openStore(t, filepath.Join(t.TempDir(), "cells.jsonl"), 0)

	var computes [keys]atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	digests := make([][]string, keys)
	for k := 0; k < keys; k++ {
		digests[k] = make([]string, callers)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(k, i int) {
				defer wg.Done()
				<-start
				rec, _, err := s.GetOrCompute(context.Background(), cellN(k),
					func(context.Context) (*journal.Record, error) {
						computes[k].Add(1)
						time.Sleep(5 * time.Millisecond) // widen the dedup window
						return recN(k), nil
					})
				if err != nil {
					t.Errorf("key %d caller %d: %v", k, i, err)
					return
				}
				digests[k][i] = rec.Digest()
			}(k, i)
		}
	}
	close(start)
	wg.Wait()

	for k := 0; k < keys; k++ {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d simulated %d times, want exactly once", k, n)
		}
		for i := 1; i < callers; i++ {
			if digests[k][i] != digests[k][0] {
				t.Errorf("key %d: caller %d got a different record", k, i)
			}
		}
	}
	st := s.Stats()
	if st.Misses != keys {
		t.Errorf("misses = %d, want %d", st.Misses, keys)
	}
	// Every call is accounted to exactly one bucket.
	if got := st.MemHits + st.DiskHits + st.Misses + st.DedupCollapses; got != keys*callers {
		t.Errorf("accounting: mem %d + disk %d + miss %d + dedup %d = %d, want %d",
			st.MemHits, st.DiskHits, st.Misses, st.DedupCollapses, got, keys*callers)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight %d after quiescence", st.InFlight)
	}
}

// TestTortureOverlappingKeys is the -race workhorse: parallel Lookup
// and singleflight misses over an overlapping key space, with a
// memory tier small enough to churn evictions throughout. Afterwards:
// exactly one compute per key ever ran, and a cold reopen serves every
// key byte-identically from disk.
func TestTortureOverlappingKeys(t *testing.T) {
	const keys, workers, opsPerWorker = 16, 8, 200
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	s := openStore(t, path, 4) // far below the key count: constant eviction

	reg := telemetry.NewLiveRegistry()
	s.SetRegistry(reg)

	var computes [keys]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for op := 0; op < opsPerWorker; op++ {
				k := (w*31 + op*17) % keys
				switch op % 3 {
				case 0:
					if rec, _, ok := s.Lookup(cellN(k)); ok && rec.TimeNs != int64(1000+k) {
						t.Errorf("lookup key %d returned foreign record", k)
					}
				default:
					rec, _, err := s.GetOrCompute(context.Background(), cellN(k),
						func(context.Context) (*journal.Record, error) {
							computes[k].Add(1)
							return recN(k), nil
						})
					if err != nil {
						t.Errorf("key %d: %v", k, err)
					} else if rec.TimeNs != int64(1000+k) {
						t.Errorf("key %d served foreign record", k)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	for k := 0; k < keys; k++ {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d simulated %d times, want exactly once", k, n)
		}
	}
	st := s.Stats()
	if st.MemEntries > 4 {
		t.Errorf("memory tier holds %d entries over cap 4", st.MemEntries)
	}
	if st.Errors != 0 {
		t.Errorf("%d compute errors during torture", st.Errors)
	}
	// Live counters mirror the snapshot counters.
	if got := reg.Counter("store.misses").Value(); got != st.Misses {
		t.Errorf("live misses %d != stats misses %d", got, st.Misses)
	}
	s.Close()

	// Byte-identical across tiers: a cold store must serve every key from
	// disk with the exact bytes the computes produced.
	s2 := openStore(t, path, 0)
	for k := 0; k < keys; k++ {
		rec, tier, ok := s2.Lookup(cellN(k))
		if !ok || tier != store.TierDisk {
			t.Fatalf("key %d not on disk after torture (ok=%v tier=%v)", k, ok, tier)
		}
		a, _ := json.Marshal(recN(k))
		b, _ := json.Marshal(rec)
		if !bytes.Equal(a, b) {
			t.Errorf("key %d: disk record not byte-identical", k)
		}
	}
}

// TestComputeErrorNotCached: a failed compute reaches every concurrent
// waiter and is cached nowhere — the next request retries and can
// succeed.
func TestComputeErrorNotCached(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "cells.jsonl"), 0)
	boom := errors.New("supply collapsed")
	_, _, err := s.GetOrCompute(context.Background(), cellN(1),
		func(context.Context) (*journal.Record, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the compute error", err)
	}
	rec, tier, err := s.GetOrCompute(context.Background(), cellN(1),
		func(context.Context) (*journal.Record, error) { return recN(1), nil })
	if err != nil || tier != store.TierNone || rec == nil {
		t.Fatalf("retry after error: tier=%v err=%v", tier, err)
	}
	if st := s.Stats(); st.Misses != 2 || st.Errors != 1 {
		t.Fatalf("stats after error+retry: %+v", st)
	}
}

// TestFollowerCancellation: a follower whose context ends stops waiting
// with ctx.Err() while the leader's compute finishes and lands in the
// store.
func TestFollowerCancellation(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "cells.jsonl"), 0)
	inCompute := make(chan struct{})
	release := make(chan struct{})

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrCompute(context.Background(), cellN(1),
			func(context.Context) (*journal.Record, error) {
				close(inCompute)
				<-release
				return recN(1), nil
			})
		leaderDone <- err
	}()
	<-inCompute

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrCompute(ctx, cellN(1),
			func(context.Context) (*journal.Record, error) {
				t.Error("follower must not compute")
				return nil, errors.New("unreachable")
			})
		followerDone <- err
	}()
	// Let the follower reach the wait, then cancel only it.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled follower still waiting")
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
	if _, tier, ok := s.Lookup(cellN(1)); !ok || tier != store.TierMemory {
		t.Fatalf("leader's record missing after follower cancellation (ok=%v tier=%v)", ok, tier)
	}
}

// TestTailErrorPropagates pins the operator-visibility chain for a
// truncated-tail disaster: a journal whose tail the scanner cannot read
// (a line beyond the 64 MB buffer cap) must surface journal.Stats.
// TailError through store.Stats().Disk — the same document /v1/stats
// serves — not be silently folded into the Corrupt count.
func TestTailErrorPropagates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tail.jsonl")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Fsync = false
	if err := j.Append(cellN(1), recN(1)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte{'x'}, 1<<20)
	for i := 0; i < 65; i++ { // one 65 MB line, no newline
		if _, err := f.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	s, err := store.Open(path, 0)
	if err != nil {
		t.Fatalf("tolerant open must survive an unreadable tail: %v", err)
	}
	defer s.Close()
	st := s.Stats()
	if st.Disk.TailError == "" {
		t.Fatalf("store stats hide the journal tail error: %+v", st.Disk)
	}
	if st.Disk.Loaded != 1 {
		t.Fatalf("entries before the bad tail must load: loaded %d, want 1", st.Disk.Loaded)
	}
}
