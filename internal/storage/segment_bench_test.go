package storage

import (
	"context"
	"testing"

	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// benchSegRows spans ~49 column blocks of 1024 rows, enough for zone-map
// pruning to have something to skip.
const benchSegRows = 50000

// BenchmarkSegmentInstall measures making a recovered store queryable from
// one sealed segment: the directory is read and the partitions install as
// mmap-backed cold runs, deferring all block decoding to the first scan
// that needs it.
func BenchmarkSegmentInstall(b *testing.B) {
	entities, events := segTestData(benchSegRows)
	sf, err := writeSegment(b.TempDir(), 1, uint64(len(events)), entities, events, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sf.unmap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := New(Options{})
		st.Ingest(&types.Dataset{Entities: entities})
		if err := sf.install(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentScan measures a narrow-window scan (2 of ~49 blocks hold
// matching times) three ways: against the cold path with zone maps pruning
// non-matching blocks, against the same data with pruning disabled (every
// block decoded, rows filtered individually), and against a fully hot
// store.
func BenchmarkSegmentScan(b *testing.B) {
	entities, events := segTestData(benchSegRows)
	q := &DataQuery{
		Window:   timeutil.Window{From: events[0].Start, To: events[2048].Start},
		SubjType: types.EntityProcess,
		Ops:      types.AllOps(),
	}
	wantMatches := 2048

	runScan := func(b *testing.B, st *Store) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ms := st.Run(context.Background(), q); len(ms) != wantMatches {
				b.Fatalf("scan returned %d matches, want %d", len(ms), wantMatches)
			}
		}
	}
	coldStore := func(b *testing.B, opts Options) *Store {
		b.Helper()
		sf, err := writeSegment(b.TempDir(), 1, uint64(len(events)), entities, events, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(sf.unmap)
		st := New(opts)
		st.Ingest(&types.Dataset{Entities: entities})
		if err := sf.install(st); err != nil {
			b.Fatal(err)
		}
		return st
	}

	b.Run("zonemap-pruned", func(b *testing.B) {
		runScan(b, coldStore(b, Options{}))
	})
	b.Run("full-decode", func(b *testing.B) {
		runScan(b, coldStore(b, Options{DisableZoneMaps: true}))
	})
	b.Run("hot-rows", func(b *testing.B) {
		st := New(Options{})
		st.Ingest(types.NewDataset(entities, events))
		runScan(b, st)
	})
}
