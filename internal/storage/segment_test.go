package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aiql/internal/gen"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// segTestData builds one deterministic single-partition dataset: n events on
// agent 1, all on 2017-03-01, starts ascending — enough rows to span
// several 1024-row blocks when n is large.
func segTestData(n int) ([]types.Entity, []types.Event) {
	const base = int64(1488326400000) // 2017-03-01T00:00:00Z
	var entities []types.Entity
	for id := 1; id <= 10; id++ {
		entities = append(entities, types.Entity{
			ID: types.EntityID(id), Type: types.EntityProcess, AgentID: 1,
			Attrs: map[string]string{types.AttrExeName: fmt.Sprintf("/bin/p%d", id)},
		})
	}
	for id := 11; id <= 20; id++ {
		entities = append(entities, types.Entity{
			ID: types.EntityID(id), Type: types.EntityFile, AgentID: 1,
			Attrs: map[string]string{types.AttrName: fmt.Sprintf("/tmp/f%d", id)},
		})
	}
	ops := []types.Op{types.OpRead, types.OpWrite, types.OpExecute}
	events := make([]types.Event, n)
	for i := range events {
		events[i] = types.Event{
			ID:      types.EventID(i + 1),
			AgentID: 1,
			Subject: types.EntityID(1 + i%10),
			Object:  types.EntityID(11 + i%10),
			Op:      ops[i%len(ops)],
			Start:   base + int64(i)*1000,
			End:     base + int64(i)*1000 + 5,
			Seq:     uint64(i + 1),
			Amount:  int64(i * 7),
		}
	}
	return entities, events
}

// coldStoreFrom writes the dataset as a v3 segment in dir and installs it
// into a fresh store as cold runs (entities hot, events cold).
func coldStoreFrom(t *testing.T, dir string, opts Options, entities []types.Entity, events []types.Event) (*Store, *segmentFile) {
	t.Helper()
	sf, err := writeSegment(dir, 1, uint64(len(events)), entities, events, nil)
	if err != nil {
		t.Fatalf("writeSegment: %v", err)
	}
	st := New(opts)
	st.Ingest(&types.Dataset{Entities: entities})
	if err := sf.install(st); err != nil {
		t.Fatalf("install: %v", err)
	}
	t.Cleanup(sf.unmap)
	return st, sf
}

// TestSegmentV2RoundTrip writes the generator's reference scenario into a
// segment, installs it cold, and requires the store to be exhaustively
// indistinguishable from one that ingested the same data hot.
func TestSegmentV2RoundTrip(t *testing.T) {
	ds := gen.Scenario(gen.SmallConfig())
	st, _ := coldStoreFrom(t, t.TempDir(), Options{}, ds.Entities, ds.Events)
	want := New(Options{})
	want.Ingest(ds)
	assertStoresEqual(t, st, want, "round trip")
	if stats := st.ScanStats(); stats.Thaws != 0 {
		t.Fatalf("round-trip scans thawed %d partitions, want 0", stats.Thaws)
	}
}

// TestSegmentV2ThawOnOutOfOrderIngest appends an event older than the cold
// prefix and requires the partition to thaw — decode, merge, and keep
// answering exactly like the all-hot store.
func TestSegmentV2ThawOnOutOfOrderIngest(t *testing.T) {
	entities, events := segTestData(2500)
	st, _ := coldStoreFrom(t, t.TempDir(), Options{}, entities, events)

	late := types.Event{
		ID: 9001, AgentID: 1, Subject: 1, Object: 11, Op: types.OpWrite,
		Start: events[100].Start, End: events[100].Start + 1, Seq: 9001,
	}
	st.AddEvent(&late)
	if stats := st.ScanStats(); stats.Thaws != 1 {
		t.Fatalf("thaws = %d, want 1", stats.Thaws)
	}
	if err := st.ColdError(); err != nil {
		t.Fatalf("thaw latched error: %v", err)
	}

	want := New(Options{})
	want.Ingest(&types.Dataset{Entities: entities, Events: events})
	want.AddEvent(&late)
	assertStoresEqual(t, st, want, "after thaw")
}

// --- corruption matrix ------------------------------------------------

// segLayout decodes the header/directory offsets a tampering test needs.
type segLayout struct {
	nParts  int
	dirOff  int
	entries []segDirLayout
}

type segDirLayout struct {
	off              int // entry offset in the file
	nEvents, nBlocks int
	nDict            int
	metaOff, metaLen int
	dataOff, dataLen int
}

func readSegLayout(t *testing.T, raw []byte) segLayout {
	t.Helper()
	l := segLayout{nParts: int(binary.LittleEndian.Uint32(raw[24:28])), dirOff: segHeaderLen}
	for i := 0; i < l.nParts; i++ {
		off := l.dirOff + i*segDirEntry
		l.entries = append(l.entries, segDirLayout{
			off:     off,
			nEvents: int(binary.LittleEndian.Uint32(raw[off+16 : off+20])),
			nBlocks: int(binary.LittleEndian.Uint32(raw[off+20 : off+24])),
			nDict:   int(binary.LittleEndian.Uint32(raw[off+24 : off+28])),
			metaOff: int(binary.LittleEndian.Uint64(raw[off+48 : off+56])),
			metaLen: int(binary.LittleEndian.Uint64(raw[off+56 : off+64])),
			dataOff: int(binary.LittleEndian.Uint64(raw[off+64 : off+72])),
			dataLen: int(binary.LittleEndian.Uint64(raw[off+72 : off+80])),
		})
	}
	return l
}

// resealMeta recomputes the checksums above a tampered zone map — each
// partition's meta CRC and the directory CRC that covers them — so the
// corruption under test is the one the block reader must catch, not a
// checksum mismatch upstream of it.
func resealMeta(t *testing.T, raw []byte) {
	t.Helper()
	l := readSegLayout(t, raw)
	for _, e := range l.entries {
		metaCRC := crc32.Checksum(raw[e.metaOff:e.metaOff+e.metaLen], castagnoli)
		binary.LittleEndian.PutUint32(raw[e.off+28:e.off+32], metaCRC)
	}
	dirCRC := crc32.Checksum(raw[l.dirOff:l.dirOff+l.nParts*segDirEntry], castagnoli)
	binary.LittleEndian.PutUint32(raw[52:56], dirCRC)
}

// readBackSegment opens the segment at path, reads its entities, installs
// it cold into a store holding entities, and drains a full scan — every
// stage at which a damaged file can surface. Zone maps are disabled so
// damaged blocks cannot hide behind the pruning the damage itself
// corrupted.
func readBackSegment(path string, entities []types.Entity) ([]Match, error) {
	seg, err := openSegment(path)
	if err != nil {
		return nil, err
	}
	if _, err := seg.readEntities(); err != nil {
		return nil, err
	}
	st := New(Options{DisableZoneMaps: true})
	st.Ingest(&types.Dataset{Entities: entities})
	if err := seg.install(st); err != nil {
		return nil, err
	}
	defer seg.unmap()
	c := st.Scan(context.Background(), &DataQuery{Ops: types.AllOps()})
	defer c.Close()
	got := Drain(c)
	return got, c.Err()
}

// TestSegmentV2CorruptionMatrix damages a valid segment in each of the ways
// the reader defends against and requires a typed ErrSegmentCorrupt naming
// the check that fired — at open when the header/directory is hurt, from
// the scan when a lazily read region is — and never a panic or a hot-path
// fallback that hides it. The zone-map cases re-seal every checksum above
// the tampered field so the block decoder's own consistency checks, not a
// CRC, must catch them.
func TestSegmentV2CorruptionMatrix(t *testing.T) {
	entities, events := segTestData(2500)
	dir := t.TempDir()
	sf, err := writeSegment(dir, 1, uint64(len(events)), entities, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	sf.unmap()
	pristine, err := os.ReadFile(sf.path)
	if err != nil {
		t.Fatal(err)
	}
	layout := readSegLayout(t, pristine)
	e0 := layout.entries[0]
	zone0 := e0.metaOff + e0.nDict*8 // block 0's zone map

	cases := []struct {
		name    string
		mutate  func(t *testing.T, raw []byte) []byte
		wantMsg string // substring the error should carry, "" for any
	}{
		{
			name: "bad-magic",
			mutate: func(t *testing.T, raw []byte) []byte {
				raw[0] ^= 0xFF
				return raw
			},
			wantMsg: "bad magic",
		},
		{
			name: "truncated-file",
			mutate: func(t *testing.T, raw []byte) []byte {
				return raw[:e0.dataOff+10]
			},
		},
		{
			name: "directory-bit-flip",
			mutate: func(t *testing.T, raw []byte) []byte {
				raw[segHeaderLen+16] ^= 0x01 // nEvents of partition 0
				return raw
			},
		},
		{
			name: "meta-bit-flip",
			mutate: func(t *testing.T, raw []byte) []byte {
				raw[e0.metaOff] ^= 0x01 // first dictionary id
				return raw
			},
			wantMsg: "checksum",
		},
		{
			name: "block-checksum",
			mutate: func(t *testing.T, raw []byte) []byte {
				raw[e0.dataOff+5] ^= 0x01 // inside block 0's stored bytes
				return raw
			},
			wantMsg: "checksum",
		},
		{
			name: "out-of-range-dictionary-index",
			mutate: func(t *testing.T, raw []byte) []byte {
				// Lower block 0's advertised maximum subject index by one.
				// The packed subject column keeps its bit width, so the block
				// still decodes, and its rows naming the old maximum now hold
				// an index outside the zone's dictionary range.
				minSubj := binary.LittleEndian.Uint32(raw[zone0+26:])
				maxSubj := binary.LittleEndian.Uint32(raw[zone0+30:])
				if maxSubj == minSubj || bits.Len32(maxSubj-1-minSubj) != bits.Len32(maxSubj-minSubj) {
					t.Fatalf("zone subject range [%d,%d] cannot narrow at constant width", minSubj, maxSubj)
				}
				binary.LittleEndian.PutUint32(raw[zone0+30:], maxSubj-1)
				resealMeta(t, raw)
				return raw
			},
			wantMsg: "dictionary index",
		},
		{
			name: "zone-map-inconsistent-with-block",
			mutate: func(t *testing.T, raw []byte) []byte {
				// Drop OpRead from block 0's op set: the zone now claims an op
				// the block demonstrably contains is absent. OpRead is not the
				// largest op present, so the packed op width is unchanged.
				ops := types.OpSet(binary.LittleEndian.Uint16(raw[zone0+24:]))
				if !ops.Contains(types.OpRead) || opWidth(ops) != opWidth(ops&^types.NewOpSet(types.OpRead)) {
					t.Fatalf("zone op set %v cannot drop read at constant width", ops)
				}
				binary.LittleEndian.PutUint16(raw[zone0+24:], uint16(ops&^types.NewOpSet(types.OpRead)))
				resealMeta(t, raw)
				return raw
			},
			wantMsg: "op",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := tc.mutate(t, append([]byte(nil), pristine...))
			path := filepath.Join(t.TempDir(), "seg-corrupt.seg")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := readBackSegment(path, entities)
			if err == nil {
				t.Fatal("corrupted segment was read back without error")
			}
			t.Log(err)
			if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("error %v is not ErrSegmentCorrupt", err)
			}
			if tc.wantMsg != "" && !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not mention %q", err, tc.wantMsg)
			}
		})
	}
}

// TestColdScanLazyBlocks is the WarmUp regression guard: opening and
// warming a segment-backed store decodes zero blocks, and a narrow-window query
// decodes only the blocks its window can touch.
func TestColdScanLazyBlocks(t *testing.T) {
	entities, events := segTestData(3000) // 3 blocks: 1024+1024+952
	st, _ := coldStoreFrom(t, t.TempDir(), Options{}, entities, events)

	if stats := st.ScanStats(); stats.BlocksDecoded != 0 {
		t.Fatalf("install decoded %d blocks, want 0 (lazy)", stats.BlocksDecoded)
	}

	// A window covering only the first 100 events: one block can match.
	w := timeutil.Window{From: timeutil.Millis(events[0].Start), To: timeutil.Millis(events[100].Start)}
	got := st.Run(context.Background(), &DataQuery{Ops: types.AllOps(), Window: w})
	if len(got) != 100 {
		t.Fatalf("narrow window matched %d events, want 100", len(got))
	}
	stats := st.ScanStats()
	if stats.BlocksConsidered != 3 {
		t.Fatalf("blocks considered = %d, want 3", stats.BlocksConsidered)
	}
	if stats.BlocksDecoded != 1 {
		t.Fatalf("narrow window decoded %d blocks, want 1", stats.BlocksDecoded)
	}
	if stats.BlocksSkipped != 2 {
		t.Fatalf("narrow window skipped %d blocks, want 2", stats.BlocksSkipped)
	}

	// A full scan decodes the remaining blocks — everything stays readable.
	if n := len(st.Run(context.Background(), &DataQuery{Ops: types.AllOps()})); n != len(events) {
		t.Fatalf("full scan matched %d events, want %d", n, len(events))
	}
	if stats := st.ScanStats(); stats.BlocksDecoded != 1+3 {
		t.Fatalf("total decoded = %d, want 4", stats.BlocksDecoded)
	}
}

// TestZoneMapPruningDifferentialStorage runs the same window/op/entity
// queries with pruning on and off and requires byte-identical results, with
// the counters proving pruning actually skipped work.
func TestZoneMapPruningDifferentialStorage(t *testing.T) {
	entities, events := segTestData(4000)
	pruned, _ := coldStoreFrom(t, t.TempDir(), Options{}, entities, events)
	exhaustive, _ := coldStoreFrom(t, t.TempDir(), Options{DisableZoneMaps: true}, entities, events)

	rng := rand.New(rand.NewSource(7))
	queries := []*DataQuery{
		{Ops: types.AllOps()},
		{Ops: types.NewOpSet(types.OpRead)},
		{Ops: types.NewOpSet(types.OpConnect)}, // absent from the data: pure skip
		{Ops: types.AllOps(), SubjType: types.EntityProcess, ObjType: types.EntityFile},
	}
	for i := 0; i < 8; i++ {
		lo := events[rng.Intn(len(events))].Start
		queries = append(queries, &DataQuery{
			Ops:    types.AllOps(),
			Window: timeutil.Window{From: timeutil.Millis(lo), To: timeutil.Millis(lo + int64(rng.Intn(500_000)))},
		})
	}

	for i, q := range queries {
		a, b := pruned.Run(context.Background(), q), exhaustive.Run(context.Background(), q)
		if len(a) != len(b) {
			t.Fatalf("query %d: pruned %d matches, exhaustive %d", i, len(a), len(b))
		}
		for j := range a {
			if *a[j].Event != *b[j].Event {
				t.Fatalf("query %d match %d: %+v vs %+v", i, j, a[j].Event, b[j].Event)
			}
		}
	}

	ps, es := pruned.ScanStats(), exhaustive.ScanStats()
	if ps.BlocksSkipped == 0 {
		t.Fatal("pruning-enabled store skipped no blocks")
	}
	if es.BlocksSkipped != 0 {
		t.Fatalf("pruning-disabled store skipped %d blocks, want 0", es.BlocksSkipped)
	}
	if ps.BlocksDecoded >= es.BlocksDecoded {
		t.Fatalf("pruned store decoded %d blocks, exhaustive %d — pruning saved nothing",
			ps.BlocksDecoded, es.BlocksDecoded)
	}
}
