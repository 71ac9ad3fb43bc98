package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"aiql/internal/cluster"
	"aiql/internal/gen"
	"aiql/internal/storage"
	"aiql/internal/trace"
	"aiql/internal/types"
)

// scanHeaders starts a well-formed /scan response from shard 0: the shard
// header and the declared trailers, as a real worker sends them.
func scanHeaders(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(cluster.ShardHeader, "0")
	w.Header().Set("Trailer", cluster.ScanRowsTrailer+", "+cluster.ScanErrorTrailer)
}

// TestScanStreamFramingFailures feeds the coordinator fake workers whose
// /scan answers break the framing in each way the protocol can break: every
// one must fail the scan as a *PartialError naming a *WorkerError, never
// pass as a short answer.
func TestScanStreamFramingFailures(t *testing.T) {
	const ent = `{"kind":"entity","id":1,"type":"proc","agentid":1,"attrs":{"exe_name":"x"}}`
	const ev = `{"kind":"event","id":7,"agentid":1,"subject":1,"object":1,"op":"read","start":42}`
	cases := []struct {
		name  string
		serve func(w http.ResponseWriter)
		is    error  // the error the WorkerError must wrap, if any
		msg   string // a substring of the error
	}{
		{"clean EOF without rows trailer", func(w http.ResponseWriter) {
			scanHeaders(w)
			fmt.Fprintln(w, ent)
			fmt.Fprintln(w, ev)
		}, io.ErrUnexpectedEOF, "stream truncated after 1 rows"},
		{"rows trailer disagrees", func(w http.ResponseWriter) {
			scanHeaders(w)
			fmt.Fprintln(w, ent)
			fmt.Fprintln(w, ev)
			w.Header().Set(cluster.ScanRowsTrailer, "2")
		}, nil, "trailer says 2 rows, stream carried 1"},
		{"error trailer", func(w http.ResponseWriter) {
			scanHeaders(w)
			fmt.Fprintln(w, ent)
			fmt.Fprintln(w, ev)
			w.Header().Set(cluster.ScanErrorTrailer, "segment read failed")
		}, nil, "worker scan failed: segment read failed"},
		{"line past the decoder bound", func(w http.ResponseWriter) {
			scanHeaders(w)
			fmt.Fprint(w, `{"kind":"entity","id":1,"type":"file","attrs":{"name":"`)
			chunk := bytes.Repeat([]byte{'a'}, 1<<16)
			for i := 0; i <= (1<<24)/len(chunk); i++ {
				if _, err := w.Write(chunk); err != nil {
					return
				}
			}
			fmt.Fprintln(w, `"}}`)
			w.Header().Set(cluster.ScanRowsTrailer, "0")
		}, bufio.ErrTooLong, "line 1"},
		{"event before its entity", func(w http.ResponseWriter) {
			scanHeaders(w)
			fmt.Fprintln(w, ev)
			w.Header().Set(cluster.ScanRowsTrailer, "1")
		}, nil, "references an entity not sent on this stream"},
		{"no shard header", func(w http.ResponseWriter) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("Trailer", cluster.ScanRowsTrailer)
			fmt.Fprintln(w, ent)
			fmt.Fprintln(w, ev)
			w.Header().Set(cluster.ScanRowsTrailer, "1")
		}, nil, "not a worker /scan stream"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				tc.serve(w)
			}))
			t.Cleanup(fake.Close)
			coord, err := cluster.New([]string{fake.URL}, cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ms, err := coord.Run(context.Background(), &storage.DataQuery{Ops: types.AllOps()})
			if err == nil {
				t.Fatalf("scan succeeded with %d rows", len(ms))
			}
			var partial *cluster.PartialError
			if !errors.As(err, &partial) {
				t.Fatalf("error is %T (%v), want *cluster.PartialError", err, err)
			}
			var we *cluster.WorkerError
			if !errors.As(err, &we) || we.Shard != 0 || we.Worker != fake.URL {
				t.Fatalf("error %v does not name worker 0 (%s)", err, fake.URL)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("error %v does not wrap %v", err, tc.is)
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("error %q does not contain %q", err, tc.msg)
			}
		})
	}
}

// TestScanBodyIsIngestFormat reads a real worker's /scan body with the
// /ingest decoder: it must parse into exactly the matched events and their
// subject and object entities, under the worker's shard header and a rows
// trailer that counts the events.
func TestScanBodyIsIngestFormat(t *testing.T) {
	ws := startWorkers(1)
	t.Cleanup(ws[0].srv.Close)
	ws[0].store.Ingest(gen.Scenario(gen.Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 100, Seed: 5}))

	q := scanDay(1, 1)
	want := ws[0].store.Run(context.Background(), q)
	if len(want) == 0 {
		t.Fatal("query matches nothing; the test needs a non-empty answer")
	}
	wq, err := cluster.EncodeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(wq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ws[0].URL()+"/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if got := resp.Header.Get(cluster.ShardHeader); got != "0" {
		t.Errorf("%s = %q, want 0", cluster.ShardHeader, got)
	}
	ds, err := trace.Read(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Trailer.Get(cluster.ScanRowsTrailer); got != strconv.Itoa(len(want)) {
		t.Errorf("%s = %q, want %d", cluster.ScanRowsTrailer, got, len(want))
	}
	if got := resp.Trailer.Get(cluster.ScanErrorTrailer); got != "" {
		t.Errorf("%s = %q on a clean scan", cluster.ScanErrorTrailer, got)
	}

	wantEvents := make([]types.Event, len(want))
	wantEnts := make(map[types.EntityID]*types.Entity)
	for i, m := range want {
		wantEvents[i] = *m.Event
		wantEnts[m.Subj.ID] = m.Subj
		wantEnts[m.Obj.ID] = m.Obj
	}
	sort.Slice(wantEvents, func(i, j int) bool { return wantEvents[i].ID < wantEvents[j].ID })
	gotEvents := append([]types.Event(nil), ds.Events...)
	sort.Slice(gotEvents, func(i, j int) bool { return gotEvents[i].ID < gotEvents[j].ID })
	if len(gotEvents) != len(wantEvents) {
		t.Fatalf("body carries %d events, want %d", len(gotEvents), len(wantEvents))
	}
	for i := range wantEvents {
		if gotEvents[i] != wantEvents[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, gotEvents[i], wantEvents[i])
		}
	}
	if len(ds.Entities) != len(wantEnts) {
		t.Errorf("body carries %d entities, want the %d matched subjects and objects", len(ds.Entities), len(wantEnts))
	}
	for _, got := range ds.Entities {
		w := wantEnts[got.ID]
		if w == nil {
			t.Fatalf("body carries entity %d, which no match references", got.ID)
		}
		if got.Type != w.Type || got.AgentID != w.AgentID || fmt.Sprint(got.Attrs) != fmt.Sprint(w.Attrs) {
			t.Errorf("entity %d: got %+v, want %+v", got.ID, got, *w)
		}
	}
}
