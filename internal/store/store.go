// Package store promotes the cell journal into a tiered, memoized result
// store — the heart of simulation-as-a-service. A lookup walks two tiers:
//
//   - memory: a bounded LRU over *journal.Record — hot cells cost a map
//     probe and a list splice, eviction simply demotes a cell back to
//     "disk-only".
//   - disk: the durable JSONL journal (internal/journal), which also
//     gives the store its crash story: every computed cell is fsynced
//     before the caller sees it, and a restarted store re-serves the
//     whole corpus from the first Lookup.
//
// Misses go through singleflight dedup: N concurrent requests for the
// same cell key cost exactly one simulation, with the followers blocking
// on the leader's result. The cell key is the journal's content hash over
// the full cell identity (workload, scale, scheme, profile, seed, params
// fingerprint, engine version), so a cached record can never be served
// across a configuration or model change.
//
// Records are treated as immutable once stored; tiers share pointers.
package store

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"repro/internal/journal"
	"repro/internal/telemetry"
)

// Tier names where a record came from.
type Tier int

const (
	// TierNone: the record was computed by this call (a miss), or the
	// lookup failed.
	TierNone Tier = iota
	TierMemory
	TierDisk
)

func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	}
	return "simulated"
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	MemHits        uint64 `json:"mem_hits"`
	DiskHits       uint64 `json:"disk_hits"`
	Misses         uint64 `json:"misses"` // computes actually started
	DedupCollapses uint64 `json:"dedup_collapses"`
	Errors         uint64 `json:"errors"` // failed computes
	InFlight       int    `json:"in_flight"`
	MemEntries     int    `json:"mem_entries"`
	MemCap         int    `json:"mem_cap"`
	// Disk is the underlying journal's view (zero-valued when the store
	// is memory-only).
	Disk journal.Stats `json:"disk"`
}

// DefaultMemCap is the memory tier's entry bound when the caller passes
// a non-positive cap. Records are a few hundred bytes of counters each,
// so the default keeps the hot set of a large campaign resident for
// single-digit megabytes.
const DefaultMemCap = 4096

// flight is one in-progress compute; followers block on done.
type flight struct {
	done chan struct{}
	rec  *journal.Record
	err  error
}

// memEntry is one memory-tier record, held in the LRU list.
type memEntry struct {
	key string
	rec *journal.Record
}

// Store is a tiered, deduplicating result store. Safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	mem     map[string]*list.Element // key -> element of lru (a *memEntry)
	lru     *list.List               // most recently used at the front
	memCap  int
	disk    *journal.Journal // nil = memory-only
	flights map[string]*flight
	stats   Stats
	reg     *telemetry.LiveRegistry // optional live counters, may be nil

	// afterAppend, when non-nil, runs in a computing leader between the
	// durable journal append and the memory insert. Tests set it to park
	// the leader inside that window.
	afterAppend func()
}

// New builds a store over an already-open journal (nil for memory-only).
// memCap bounds the memory tier; non-positive selects DefaultMemCap.
// The store owns the journal from here: Close closes it.
func New(disk *journal.Journal, memCap int) *Store {
	if memCap <= 0 {
		memCap = DefaultMemCap
	}
	return &Store{
		mem:     make(map[string]*list.Element),
		lru:     list.New(),
		memCap:  memCap,
		disk:    disk,
		flights: make(map[string]*flight),
	}
}

// Open opens (or creates) the journal at path and builds a store over
// it. An empty path yields a memory-only store — every restart is cold.
func Open(path string, memCap int) (*Store, error) {
	var disk *journal.Journal
	if path != "" {
		j, err := journal.Open(path)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		disk = j
	}
	return New(disk, memCap), nil
}

// SetRegistry attaches a live telemetry registry: the store mirrors its
// counters (store.mem_hits, store.disk_hits, store.misses,
// store.dedup_collapses, store.errors) into it as they happen, so a
// /metrics scrape sees them without locking the store.
func (s *Store) SetRegistry(reg *telemetry.LiveRegistry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
}

// count bumps a live counter if a registry is attached. Called with s.mu
// held; LiveRegistry counters are atomic, so this never blocks.
func (s *Store) count(name string) {
	if s.reg != nil {
		s.reg.Counter("store." + name).Add(1)
	}
}

// insertLocked puts a record into the memory tier as its most recently
// used entry, evicting the least recently used one beyond the cap.
// Eviction only demotes: the record stays on disk.
func (s *Store) insertLocked(key string, rec *journal.Record) {
	if el, ok := s.mem[key]; ok {
		el.Value.(*memEntry).rec = rec
		s.lru.MoveToFront(el)
		return
	}
	s.mem[key] = s.lru.PushFront(&memEntry{key: key, rec: rec})
	if s.lru.Len() > s.memCap {
		victim := s.lru.Remove(s.lru.Back()).(*memEntry)
		delete(s.mem, victim.key)
	}
}

// memLocked serves key from the memory tier, marking it most recently
// used.
func (s *Store) memLocked(key string) (*journal.Record, bool) {
	el, ok := s.mem[key]
	if !ok {
		return nil, false
	}
	s.stats.MemHits++
	s.count("mem_hits")
	s.lru.MoveToFront(el)
	return el.Value.(*memEntry).rec, true
}

// diskLocked serves the cell from the disk tier, promoting the record
// into the memory tier.
func (s *Store) diskLocked(c journal.Cell, key string) (*journal.Record, bool) {
	if s.disk == nil {
		return nil, false
	}
	// Lock order is always store.mu -> journal.mu, never the reverse.
	rec, ok := s.disk.Lookup(c)
	if !ok {
		return nil, false
	}
	s.stats.DiskHits++
	s.count("disk_hits")
	s.insertLocked(key, rec)
	return rec, true
}

// Lookup returns the cell's record from the fastest tier holding it.
func (s *Store) Lookup(c journal.Cell) (*journal.Record, Tier, bool) {
	key := c.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.memLocked(key); ok {
		return rec, TierMemory, true
	}
	if rec, ok := s.diskLocked(c, key); ok {
		return rec, TierDisk, true
	}
	return nil, TierNone, false
}

// GetOrCompute serves the cell from the fastest tier that has it, or —
// on a miss — runs compute exactly once however many callers ask
// concurrently: one leader simulates while followers block on its
// result (each counted as a dedup collapse). A successful compute is
// durable (journal append + fsync) before anyone sees it; a failed one
// is reported to every waiter and cached nowhere, so the next request
// retries.
//
// A follower whose ctx ends stops waiting and returns ctx.Err(); the
// leader's compute keeps running (it serves the other waiters) under
// the leader's own ctx.
func (s *Store) GetOrCompute(ctx context.Context, c journal.Cell, compute func(ctx context.Context) (*journal.Record, error)) (*journal.Record, Tier, error) {
	key := c.Key()
	s.mu.Lock()
	if rec, ok := s.memLocked(key); ok {
		s.mu.Unlock()
		return rec, TierMemory, nil
	}
	// The flight is checked before the disk tier: a leader's record is on
	// disk before it reaches memory, and a request arriving in between
	// must collapse onto the flight, not count as a disk hit.
	if f, ok := s.flights[key]; ok {
		s.stats.DedupCollapses++
		s.count("dedup_collapses")
		s.mu.Unlock()
		select {
		case <-f.done:
			return f.rec, TierNone, f.err
		case <-ctx.Done():
			return nil, TierNone, ctx.Err()
		}
	}
	if rec, ok := s.diskLocked(c, key); ok {
		s.mu.Unlock()
		return rec, TierDisk, nil
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.stats.Misses++
	s.stats.InFlight++
	s.count("misses")
	s.mu.Unlock()

	rec, err := compute(ctx)
	// The disk append (durable, fsynced) happens first and outside the
	// store lock — the journal has its own — so the memory tier never
	// holds a record the disk tier could lose, and an fsync never stalls
	// concurrent memory-tier hits.
	if err == nil && s.disk != nil {
		if perr := s.disk.Append(c, rec); perr != nil {
			// The cell simulated but its proof is not durable — the
			// store's contract is "served results are reproducible from
			// the journal", so this surfaces as a failure, not a success
			// with silent data loss.
			rec, err = nil, fmt.Errorf("store: cell computed but not durable: %w", perr)
		}
	}
	if s.afterAppend != nil {
		s.afterAppend()
	}
	// One critical section inserts the record and retires the flight, so
	// every later request sees one or the other.
	s.mu.Lock()
	if err != nil {
		s.stats.Errors++
		s.count("errors")
	} else {
		s.insertLocked(key, rec)
	}
	delete(s.flights, key)
	s.stats.InFlight--
	s.mu.Unlock()
	f.rec, f.err = rec, err
	close(f.done)
	return rec, TierNone, err
}

// Stats snapshots the store's counters, including the disk tier's.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.MemEntries = s.lru.Len()
	st.MemCap = s.memCap
	if s.disk != nil {
		st.Disk = s.disk.Stats()
	}
	return st
}

// Close releases the disk tier. In-memory lookups keep working; further
// computes on a disk-backed store will fail their durable append.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disk == nil {
		return nil
	}
	return s.disk.Close()
}
