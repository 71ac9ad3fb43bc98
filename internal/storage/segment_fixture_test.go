package storage

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aiql/internal/types"
)

// The segment files under testdata/ were written by the last build that
// could emit all three on-disk formats, from fixtureData as WAL range
// [1, 1]. They are inputs, not goldens to regenerate: segment-v1.seg and
// segment-v2.seg stand for data in the retired formats, and segment-v3.seg
// pins the current format's bytes.

// fixtureData rebuilds the dataset the testdata segments hold: 240 events
// over two agents and three days (six partitions), referencing the twenty
// entities of segTestData.
func fixtureData() ([]types.Entity, []types.Event) {
	entities, events := segTestData(240)
	for i := range events {
		events[i].AgentID = 1 + i%2
		events[i].Start += int64(i%3) * 86_400_000
		events[i].End += int64(i%3) * 86_400_000
	}
	return entities, events
}

// openFixtureDir installs testdata/name as the only segment of a fresh data
// directory, under the file name recovery scans for, and opens it.
func openFixtureDir(t *testing.T, name string) (*Persistent, error) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "seg"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg", segFileName(1, 1)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPersistent(dir, persistOpts())
	if err == nil {
		t.Cleanup(func() { p.Close() })
	}
	return p, err
}

// TestSegmentFixtureV3 pins the v3 format: today's writer reproduces the
// checked-in file byte for byte, and a store recovered from that file
// answers a full scan exactly like a hot store fed the same data.
func TestSegmentFixtureV3(t *testing.T) {
	entities, events := fixtureData()
	fixture, err := os.ReadFile(filepath.Join("testdata", "segment-v3.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := writeSegment(t.TempDir(), 1, 1, entities, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	sf.unmap()
	written, err := os.ReadFile(sf.path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, fixture) {
		t.Fatalf("writer output (%d bytes) differs from the v3 fixture (%d bytes)", len(written), len(fixture))
	}

	p, err := openFixtureDir(t, "segment-v3.seg")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WarmUp(); err != nil {
		t.Fatal(err)
	}
	want := New(Options{})
	want.Ingest(&types.Dataset{Entities: entities, Events: events})
	assertStoresEqual(t, p.Store, want, "v3 fixture")

	all := &DataQuery{Ops: types.AllOps()}
	gm, wm := p.Run(context.Background(), all), want.Run(context.Background(), all)
	if len(gm) != len(events) || len(gm) != len(wm) {
		t.Fatalf("full scan %d matches, hot store %d, fixture holds %d", len(gm), len(wm), len(events))
	}
	for i := range gm {
		if *gm[i].Event != *wm[i].Event || gm[i].Subj.ID != wm[i].Subj.ID || gm[i].Obj.ID != wm[i].Obj.ID {
			t.Fatalf("match %d: %+v, hot store %+v", i, gm[i].Event, wm[i].Event)
		}
	}
}

// TestRetiredSegmentFormatsFailLoudly requires a data directory holding a
// v1 (row) or v2 (uncompressed columnar) segment to fail to open with a
// typed corruption error naming the unsupported magic — never to open with
// the file's history silently missing.
func TestRetiredSegmentFormatsFailLoudly(t *testing.T) {
	for _, tc := range []struct{ file, magic string }{
		{"segment-v1.seg", "AIQLSEG1"},
		{"segment-v2.seg", "AIQLSEG2"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			p, err := openFixtureDir(t, tc.file)
			if err == nil {
				t.Fatalf("opened a store holding %d events from a retired-format segment", p.EventCount())
			}
			if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("error %v is not ErrSegmentCorrupt", err)
			}
			if !strings.Contains(err.Error(), tc.magic) {
				t.Fatalf("error %q does not name the magic %s", err, tc.magic)
			}
		})
	}
}
