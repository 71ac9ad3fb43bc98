package trace

import (
	"bufio"
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"aiql/internal/gen"
	"aiql/internal/types"
)

func TestRoundTrip(t *testing.T) {
	ds := gen.Scenario(gen.Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 200, Seed: 3})
	var buf bytes.Buffer
	if err := Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entities) != len(ds.Entities) {
		t.Errorf("entities = %d, want %d", len(got.Entities), len(ds.Entities))
	}
	if len(got.Events) != len(ds.Events) {
		t.Fatalf("events = %d, want %d", len(got.Events), len(ds.Events))
	}
	// Events are stored sorted; the round trip must preserve every field.
	for i := range ds.Events {
		a, b := ds.Events[i], got.Events[i]
		if a != b {
			t.Fatalf("event %d differs: %+v vs %+v", i, a, b)
		}
	}
	// Entity attributes survive.
	for i := range ds.Entities {
		want := &ds.Entities[i]
		have := got.Entity(want.ID)
		if have == nil {
			t.Fatalf("entity %d lost", want.ID)
		}
		if have.Type != want.Type || have.AgentID != want.AgentID {
			t.Fatalf("entity %d header differs", want.ID)
		}
		for k, v := range want.Attrs {
			if have.Attrs[k] != v {
				t.Fatalf("entity %d attr %q = %q, want %q", want.ID, k, have.Attrs[k], v)
			}
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"garbage", "not json\n", "line 1"},
		{"unknown kind", `{"kind":"widget"}` + "\n", "unknown record kind"},
		{"bad entity type", `{"kind":"entity","id":1,"type":"registry"}` + "\n", "unknown entity type"},
		{"bad op", `{"kind":"event","id":1,"op":"frobnicate"}` + "\n", "unknown operation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("accepted malformed input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	in := `{"kind":"entity","id":1,"type":"file","agentid":1,"attrs":{"name":"/x"}}

{"kind":"event","id":1,"agentid":1,"subject":1,"object":1,"op":"read","start":5,"end":6,"seq":1}
`
	ds, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Entities) != 1 || len(ds.Events) != 1 {
		t.Errorf("parsed %d entities, %d events", len(ds.Entities), len(ds.Events))
	}
}

func TestReadUnsortedEventsGetSorted(t *testing.T) {
	in := `{"kind":"event","id":1,"agentid":1,"subject":1,"object":2,"op":"read","start":500,"seq":2}
{"kind":"event","id":2,"agentid":1,"subject":1,"object":2,"op":"read","start":100,"seq":1}
`
	ds, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Events[0].ID != 2 {
		t.Error("Read must deliver a time-sorted dataset")
	}
}

func TestEmptyDataset(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, types.NewDataset(nil, nil)); err != nil {
		t.Fatal(err)
	}
	ds, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Entities) != 0 || len(ds.Events) != 0 {
		t.Error("empty round trip not empty")
	}
}

// paddedEntity returns an entity line of exactly n bytes, padded in its
// name attribute.
func paddedEntity(n int) []byte {
	head, tail := `{"kind":"entity","id":1,"type":"file","attrs":{"name":"`, `"}}`
	b := make([]byte, n, n+1)
	copy(b, head)
	for i := len(head); i < n-len(tail); i++ {
		b[i] = 'a'
	}
	copy(b[n-len(tail):], tail)
	return b
}

func TestReadLineTooLong(t *testing.T) {
	fits := append(paddedEntity(maxLine-1), '\n')
	ds, err := Read(bytes.NewReader(fits))
	if err != nil {
		t.Fatalf("line of maxLine-1 bytes: %v", err)
	}
	if len(ds.Entities) != 1 {
		t.Fatalf("entities = %d, want 1", len(ds.Entities))
	}
	for _, in := range [][]byte{paddedEntity(maxLine), append(paddedEntity(maxLine+1), '\n')} {
		_, err := Read(bytes.NewReader(in))
		if !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("%d-byte line: error %v does not wrap bufio.ErrTooLong", len(in), err)
		}
		if !strings.HasPrefix(err.Error(), "trace: line 1: ") {
			t.Errorf("error %q lacks the line prefix", err)
		}
	}
}

func TestReadDeepNesting(t *testing.T) {
	nested := func(depth int) []byte {
		return []byte(`{"kind":"event","op":"read","x":` +
			strings.Repeat("[", depth) + strings.Repeat("]", depth) + "}")
	}
	// The record object is one level, so 9,999 nested arrays reach
	// encoding/json's limit of 10,000 and one more exceeds it.
	checkAgainstOracle(t, nested(maxDepth-1))
	if _, err := Read(bytes.NewReader(nested(maxDepth - 1))); err != nil {
		t.Fatalf("depth %d rejected: %v", maxDepth, err)
	}
	checkAgainstOracle(t, nested(maxDepth))
	for _, depth := range []int{maxDepth, 1 << 20} {
		_, err := Read(bytes.NewReader(nested(depth)))
		if err == nil || !strings.Contains(err.Error(), "exceeded max depth") {
			t.Fatalf("depth %d: error %v, want exceeded max depth", depth+1, err)
		}
	}
}

// liveBatch is a 14-event batch with its entities, the size of one live
// ingest request.
func liveBatch(t testing.TB) []byte {
	ds := gen.Scenario(gen.Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 20, Seed: 9})
	evs := ds.Events[:14]
	var ents []types.Entity
	seen := map[types.EntityID]bool{}
	for _, ev := range evs {
		for _, id := range [2]types.EntityID{ev.Subject, ev.Object} {
			if !seen[id] {
				seen[id] = true
				ents = append(ents, *ds.Entity(id))
			}
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, types.NewDataset(ents, append([]types.Event(nil), evs...))); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadAllocationBudget pins the per-call cost of a live batch: a
// 4 KiB read buffer, one map and one value string per entity, and the
// result slices — nowhere near the 1 MiB scanner buffer (and ~1,100
// allocations) each call of the encoding/json decoder cost.
func TestReadAllocationBudget(t *testing.T) {
	body := liveBatch(t)
	const runs = 200
	read := func() {
		if _, err := Read(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	read()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	if perCall > 32<<10 {
		t.Errorf("Read of a %d-byte batch allocates %d B per call, want <= 32 KiB", len(body), perCall)
	}
	allocs := testing.AllocsPerRun(runs, read)
	if allocs > 160 {
		t.Errorf("Read of a %d-byte batch makes %.0f allocations per call, want <= 160", len(body), allocs)
	}
	t.Logf("%d-byte batch: %d B, %.0f allocs per call", len(body), perCall, allocs)
}

type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// A read error ends the stream with that error, wrapped, even when it
// cuts a record in half: the truncated tail is not parsed as a line.
func TestReadReaderErrorIsWrapped(t *testing.T) {
	errCut := errors.New("cut")
	in := `{"kind":"entity","id":1,"type":"file"}` + "\n" + `{"kind":"ent`
	_, err := Read(&failingReader{data: []byte(in), err: errCut})
	if !errors.Is(err, errCut) {
		t.Fatalf("error %v does not wrap the reader's error", err)
	}
}
