package storage

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"testing"

	"aiql/internal/pred"
	"aiql/internal/types"
)

// TestSegmentV3RoundTrip writes a multi-block dataset as a v3 segment and
// requires the cold store to answer exactly like the all-hot reference,
// through both the full-scan and the indexed path.
func TestSegmentV3RoundTrip(t *testing.T) {
	entities, events := segTestData(3000)
	want := New(Options{})
	want.Ingest(&types.Dataset{Entities: entities, Events: events})

	got, sf := coldStoreFrom(t, t.TempDir(), Options{}, entities, events)
	assertStoresEqual(t, got, want, "v3 cold store")

	// Reopen: the header and directory read back exactly as written.
	seg, err := openSegment(sf.path)
	if err != nil {
		t.Fatalf("openSegment: %v", err)
	}
	if seg.firstSeq != sf.firstSeq || seg.lastSeq != sf.lastSeq || len(seg.parts) != len(sf.parts) {
		t.Fatalf("reopened seq [%d,%d] with %d partitions, wrote [%d,%d] with %d",
			seg.firstSeq, seg.lastSeq, len(seg.parts), sf.firstSeq, sf.lastSeq, len(sf.parts))
	}
	for i := range seg.parts {
		if seg.parts[i].segPartInfo != sf.parts[i].segPartInfo {
			t.Fatalf("partition %d: reopened %+v, wrote %+v", i, seg.parts[i].segPartInfo, sf.parts[i].segPartInfo)
		}
	}
}

// TestSegmentV3CompressionSavesSpace writes a dataset as a segment and
// requires the file — entities, dictionary, zone maps and posting lists
// included — to be measurably smaller than the same batch in the WAL's
// fixed-width row encoding.
func TestSegmentV3CompressionSavesSpace(t *testing.T) {
	entities, events := segTestData(5000)
	sf, err := writeSegment(t.TempDir(), 1, uint64(len(events)), entities, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.unmap()
	fi, err := os.Stat(sf.path)
	if err != nil {
		t.Fatal(err)
	}
	rows := len(encodeBatch(entities, events))
	if fi.Size() >= int64(rows) {
		t.Fatalf("segment is %d bytes, row encoding %d — compression saved nothing", fi.Size(), rows)
	}
	t.Logf("segment %d bytes, row encoding %d bytes (%.1f%%)", fi.Size(), rows, 100*float64(fi.Size())/float64(rows))
}

// TestSegmentV3CompressedCounters scans a v3 store and checks the
// compression accounting: stored bytes read must be positive and smaller
// than the raw bytes they decoded to on this highly regular dataset.
func TestSegmentV3CompressedCounters(t *testing.T) {
	entities, events := segTestData(4000)
	st, _ := coldStoreFrom(t, t.TempDir(), Options{}, entities, events)
	if n := len(st.Run(context.Background(), &DataQuery{Ops: types.AllOps()})); n != 4000 {
		t.Fatalf("full scan returned %d matches, want 4000", n)
	}
	ss := st.ScanStats()
	if ss.CompressedBytesRead <= 0 || ss.CompressedBytesDecode <= 0 {
		t.Fatalf("compression counters not engaged: %+v", ss)
	}
	if ss.CompressedBytesRead >= ss.CompressedBytesDecode {
		t.Fatalf("read %d stored bytes for %d decoded — no compression on regular data",
			ss.CompressedBytesRead, ss.CompressedBytesDecode)
	}
}

// TestSegmentV3CorruptionTyped damages a v3 file in each structurally
// distinct region and requires a typed ErrSegmentCorrupt from open or scan —
// never a panic, never silent wrong rows.
func TestSegmentV3CorruptionTyped(t *testing.T) {
	entities, events := segTestData(2500)
	dir := t.TempDir()
	sf, err := writeSegment(dir, 1, uint64(len(events)), entities, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := sf.path
	sf.unmap()
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	layout := readSegLayout(t, pristine)
	if len(layout.entries) != 1 {
		t.Fatalf("expected 1 partition, got %d", len(layout.entries))
	}
	pe := layout.entries[0]

	cases := []struct {
		name string
		mut  func(raw []byte) []byte
	}{
		{"bad-magic", func(raw []byte) []byte { raw[0] ^= 0xFF; return raw }},
		{"truncated-file", func(raw []byte) []byte { return raw[:len(raw)-7] }},
		{"directory-bit-flip", func(raw []byte) []byte { raw[pe.off+16] ^= 0x01; return raw }},
		{"zone-meta-bit-flip", func(raw []byte) []byte { raw[pe.metaOff+pe.nDict*8+3] ^= 0x40; return raw }},
		{"block-flag-byte", func(raw []byte) []byte { raw[pe.dataOff] ^= 0x01; return raw }},
		{"block-payload-bit-flip", func(raw []byte) []byte { raw[pe.dataOff+pe.dataLen/2] ^= 0x10; return raw }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := tc.mut(append([]byte(nil), pristine...))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := readBackSegment(path, entities)
			if err == nil {
				t.Fatal("corruption went undetected")
			}
			if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
		})
	}
}

// attrZoneData builds a block-segregated dataset for trigram pruning: a
// candidate pool larger than the dictionary-index map limit (so the
// membership pruner stands down), events whose first three blocks reference
// only "bravo" processes and whose last block references an "alpha" one.
func attrZoneData() ([]types.Entity, []types.Event) {
	const base = int64(1488326400000) // 2017-03-01T00:00:00Z
	var entities []types.Entity
	for id := 1; id <= 1100; id++ {
		entities = append(entities, types.Entity{
			ID: types.EntityID(id), Type: types.EntityProcess, AgentID: 1,
			Attrs: map[string]string{types.AttrExeName: "/bin/alpha-worker"},
		})
	}
	for id := 2001; id <= 2004; id++ {
		entities = append(entities, types.Entity{
			ID: types.EntityID(id), Type: types.EntityProcess, AgentID: 1,
			Attrs: map[string]string{types.AttrExeName: "/bin/bravo-daemon"},
		})
	}
	entities = append(entities, types.Entity{
		ID: 3000, Type: types.EntityFile, AgentID: 1,
		Attrs: map[string]string{types.AttrName: "/tmp/out"},
	})
	events := make([]types.Event, 4096)
	for i := range events {
		subj := types.EntityID(2001 + i%4) // bravo
		if i >= 3*1024 {
			subj = 1 // alpha: confined to the final block
		}
		events[i] = types.Event{
			ID: types.EventID(i + 1), AgentID: 1,
			Subject: subj, Object: 3000, Op: types.OpWrite,
			Start: base + int64(i)*1000, End: base + int64(i)*1000 + 5,
			Seq: uint64(i + 1), Amount: int64(i),
		}
	}
	return entities, events
}

// TestSegmentV3AttrZonePruning is the differential for trigram attribute
// zone maps: a LIKE predicate whose candidate set is too large for
// dictionary-index pruning must still skip the blocks that cannot contain a
// matching subject, and must return exactly the rows an unpruned scan does.
func TestSegmentV3AttrZonePruning(t *testing.T) {
	entities, events := attrZoneData()
	q := func() *DataQuery {
		return &DataQuery{
			SubjType: types.EntityProcess,
			SubjPred: pred.NewCond(types.AttrExeName, pred.CmpEq, "%alpha%"),
			ObjType:  types.EntityFile,
			Ops:      types.NewOpSet(types.OpWrite),
		}
	}

	pruned, sf := coldStoreFrom(t, t.TempDir(), Options{}, entities, events)
	sfRe, err := openSegment(sf.path)
	if err != nil {
		t.Fatal(err)
	}
	exhaustive := New(Options{DisableZoneMaps: true})
	exhaustive.Ingest(&types.Dataset{Entities: entities})
	if err := sfRe.install(exhaustive); err != nil {
		t.Fatal(err)
	}
	defer sfRe.unmap()

	pm, em := pruned.Run(context.Background(), q()), exhaustive.Run(context.Background(), q())
	if len(pm) != len(em) {
		t.Fatalf("pruned scan %d matches, exhaustive %d", len(pm), len(em))
	}
	if len(pm) != 1024 {
		t.Fatalf("got %d matches, want the 1024 alpha-block rows", len(pm))
	}
	for i := range pm {
		if pm[i].Event.ID != em[i].Event.ID {
			t.Fatalf("match %d: event %d vs %d", i, pm[i].Event.ID, em[i].Event.ID)
		}
	}

	ps, es := pruned.ScanStats(), exhaustive.ScanStats()
	if ps.AttrZoneSkips == 0 {
		t.Fatalf("no attribute-zone skips recorded: %+v", ps)
	}
	if es.AttrZoneSkips != 0 {
		t.Fatalf("pruning-disabled run skipped %d blocks by trigram", es.AttrZoneSkips)
	}
	if ps.BlocksDecoded >= es.BlocksDecoded {
		t.Fatalf("pruned run decoded %d blocks, exhaustive %d — pruning saved nothing",
			ps.BlocksDecoded, es.BlocksDecoded)
	}
}

// FuzzSegmentV3 is the round-trip and robustness fuzz: a generated dataset
// must survive write → open → cold scan byte-for-byte, and a one-byte
// mutation anywhere in the file must produce either identical results or a
// typed ErrSegmentCorrupt — never a panic and never silent wrong rows.
func FuzzSegmentV3(f *testing.F) {
	f.Add(int64(1), uint16(10), -1, byte(0))
	f.Add(int64(2), uint16(300), 60, byte(0xFF))
	f.Add(int64(3), uint16(1500), 200, byte(0x01))
	f.Add(int64(4), uint16(0), 0, byte(0x80))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mutOff int, mutByte byte) {
		rng := rand.New(rand.NewSource(seed))
		entities, events := segTestData(int(n)%2100 + 1)
		for i := range events {
			events[i].AgentID = 1 + rng.Intn(2)
			events[i].Start += int64(rng.Intn(3)) * 86_400_000
			if rng.Intn(4) == 0 {
				events[i].Start = events[rng.Intn(len(events))].Start
			}
		}
		dir := t.TempDir()
		sf, err := writeSegment(dir, 1, uint64(len(events)), entities, events, nil)
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		sf.unmap()

		raw, err := os.ReadFile(sf.path)
		if err != nil {
			t.Fatal(err)
		}
		mutated := false
		if mutOff >= 0 && mutOff < len(raw) && raw[mutOff]^mutByte != raw[mutOff] {
			raw[mutOff] ^= mutByte
			mutated = true
			if err := os.WriteFile(sf.path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		want := New(Options{})
		want.Ingest(&types.Dataset{Entities: entities, Events: events})
		wantMatches := want.Run(context.Background(), &DataQuery{Ops: types.AllOps()})

		err = func() error {
			seg, err := openSegment(sf.path)
			if err != nil {
				return err
			}
			if _, err := seg.readEntities(); err != nil {
				return err
			}
			st := New(Options{DisableZoneMaps: true})
			st.Ingest(&types.Dataset{Entities: entities})
			if err := seg.install(st); err != nil {
				return err
			}
			defer seg.unmap()
			c := st.Scan(context.Background(), &DataQuery{Ops: types.AllOps()})
			defer c.Close()
			got := Drain(c)
			if err := c.Err(); err != nil {
				return err
			}
			if len(got) != len(wantMatches) {
				t.Fatalf("scan returned %d matches, want %d", len(got), len(wantMatches))
			}
			for i := range got {
				if *got[i].Event != *wantMatches[i].Event {
					t.Fatalf("match %d: %+v, want %+v", i, got[i].Event, wantMatches[i].Event)
				}
			}
			return nil
		}()
		if err != nil {
			if !mutated {
				t.Fatalf("pristine segment failed: %v", err)
			}
			if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("mutation produced untyped error: %v", err)
			}
		}
	})
}
