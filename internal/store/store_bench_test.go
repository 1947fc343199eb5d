package store_test

import (
	"path/filepath"
	"testing"

	"repro/internal/journal"
	"repro/internal/store"
)

// BenchmarkStoreLookup measures one Lookup per tier at the default memory
// cap (store.DefaultMemCap) with the memory tier full, over a journal
// holding twice that many cells:
//
//   - memory-hit cycles over the resident half, so every lookup is served
//     from memory (the LRU touch and the key hash included);
//   - disk-hit cycles over all the cells, which defeats an LRU of half
//     their number, so every lookup misses memory, is served from the
//     journal's index and promotes the record, evicting the oldest.
//
// The setup appends without fsync: it builds the journal, it does not
// measure it.
func BenchmarkStoreLookup(b *testing.B) {
	const memCap = store.DefaultMemCap
	j, err := journal.Open(filepath.Join(b.TempDir(), "cells.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	j.Fsync = false
	cells := make([]journal.Cell, 2*memCap)
	for n := range cells {
		cells[n] = cellN(n)
		if err := j.Append(cells[n], recN(n)); err != nil {
			b.Fatal(err)
		}
	}
	s := store.New(j, 0)
	b.Cleanup(func() { s.Close() })

	lookup := func(b *testing.B, c journal.Cell, want store.Tier) {
		if _, tier, ok := s.Lookup(c); !ok || tier != want {
			b.Fatalf("lookup %s: tier %v (found %v), want %v", c.Workload, tier, ok, want)
		}
	}
	b.Run("memory-hit", func(b *testing.B) {
		// Fill the memory tier with the first half.
		for _, c := range cells[:memCap] {
			s.Lookup(c)
		}
		if st := s.Stats(); st.MemEntries != memCap {
			b.Fatalf("memory tier holds %d entries, want %d", st.MemEntries, memCap)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lookup(b, cells[i%memCap], store.TierMemory)
		}
	})
	b.Run("disk-hit", func(b *testing.B) {
		// Resident: the first half. Cycling from the second half on, each
		// cell was last touched 2*memCap-1 lookups ago and has been evicted.
		for _, c := range cells[:memCap] {
			s.Lookup(c)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lookup(b, cells[(memCap+i)%len(cells)], store.TierDisk)
		}
	})
}
