package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aiql/internal/cluster"
	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/mpp"
	"aiql/internal/queries"
	"aiql/internal/server"
	"aiql/internal/storage"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// worker is one httptest-backed aiqld worker shard.
type worker struct {
	store *storage.Store
	srv   *httptest.Server
	scans atomic.Int64
}

func (w *worker) URL() string { return w.srv.URL }

// startWorkers boots n store-backed worker servers counting /scan hits.
func startWorkers(n int) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		st := storage.New(storage.Options{})
		s := server.New(st, engine.New(st, engine.Options{}), server.Options{})
		s.SetShard(i)
		h := s.Handler()
		w := &worker{store: st}
		w.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/scan" {
				w.scans.Add(1)
			}
			h.ServeHTTP(rw, r)
		}))
		ws[i] = w
	}
	return ws
}

func workerURLs(ws []*worker) []string {
	urls := make([]string, len(ws))
	for i, w := range ws {
		urls[i] = w.URL()
	}
	return urls
}

// fixture is the shared test topology: one dataset served three ways — a
// single local store, and a 3-worker cluster ingested through the
// coordinator's scatter path. Shared across tests because scattering the
// scenario over HTTP is the expensive part.
type fixture struct {
	ds      *types.Dataset
	single  *storage.Store
	workers []*worker
	coord   *cluster.Coordinator
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func clusterFixture(t testing.TB) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		ds := gen.Scenario(gen.SmallConfig())
		single := storage.New(storage.Options{})
		single.Ingest(ds)
		workers := startWorkers(3)
		coord, err := cluster.New(workerURLs(workers), cluster.Options{Placement: mpp.SemanticsAware})
		if err != nil {
			fixErr = err
			return
		}
		if err := coord.Ingest(context.Background(), ds); err != nil {
			fixErr = err
			return
		}
		fix = &fixture{ds: ds, single: single, workers: workers, coord: coord}
	})
	if fixErr != nil {
		t.Fatalf("cluster fixture: %v", fixErr)
	}
	return fix
}

func scanDay(agent, day int) *storage.DataQuery {
	return &storage.DataQuery{
		Agents: []int{agent},
		Window: timeutil.Window{From: gen.DayStart(day), To: gen.DayStart(day + 1)},
		Ops:    types.AllOps(),
	}
}

// TestScatterIngestFollowsPlacement checks the coordinator's ingest path:
// every event lands on its placement-assigned shard, entities are
// broadcast, and nothing is lost or duplicated.
func TestScatterIngestFollowsPlacement(t *testing.T) {
	f := clusterFixture(t)
	n := len(f.workers)
	want := make([]int, n)
	for i := range f.ds.Events {
		ev := &f.ds.Events[i]
		want[mpp.SemanticsAware.Shard(ev.AgentID, timeutil.DayIndex(ev.Start), n)]++
	}
	total := 0
	for i, w := range f.workers {
		if got := w.store.EventCount(); got != want[i] {
			t.Errorf("worker %d holds %d events, placement assigns %d", i, got, want[i])
		}
		total += w.store.EventCount()
		// Entities are replicated: any entity resolvable on the single
		// store must resolve on every shard.
		if w.store.Entity(f.ds.Entities[0].ID) == nil {
			t.Errorf("worker %d is missing broadcast entity %d", i, f.ds.Entities[0].ID)
		}
	}
	if total != len(f.ds.Events) {
		t.Errorf("cluster holds %d events, dataset has %d", total, len(f.ds.Events))
	}
}

// TestCoordinatorCorpusEquivalence is the acceptance gate for the
// distributed tier: an httptest-backed coordinator with 3 workers answers
// the full evaluation corpus — all case-study and behaviour queries —
// identically to a single-node store.
func TestCoordinatorCorpusEquivalence(t *testing.T) {
	f := clusterFixture(t)
	singleEng := engine.New(f.single, engine.Options{})
	clusterEng := engine.New(f.coord, engine.Options{})

	corpus := append(queries.CaseStudy(), queries.Behaviors()...)
	if len(corpus) == 0 {
		t.Fatal("empty corpus")
	}
	for _, q := range corpus {
		want, err := singleEng.Query(q.Src)
		if err != nil {
			t.Fatalf("%s on single store: %v", q.ID, err)
		}
		got, err := clusterEng.Query(q.Src)
		if err != nil {
			t.Fatalf("%s on cluster: %v", q.ID, err)
		}
		if fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) {
			t.Errorf("%s: columns %v != %v", q.ID, got.Columns, want.Columns)
		}
		if queries.Canonical(got.Rows) != queries.Canonical(want.Rows) {
			t.Errorf("%s: cluster returned %d rows, single store %d rows (sets differ)",
				q.ID, len(got.Rows), len(want.Rows))
		}
	}
}

// TestCoordinatorPrunesWorkers proves worker elimination happens before
// fan-out: a spatially and temporally constrained scan contacts exactly
// the home shard, and the skipped workers never see a /scan request.
func TestCoordinatorPrunesWorkers(t *testing.T) {
	f := clusterFixture(t)
	n := len(f.workers)
	day := timeutil.DayIndex(gen.DayStart(1))
	home := mpp.SemanticsAware.Shard(gen.AgentWinClient, day, n)

	before := make([]int64, n)
	for i, w := range f.workers {
		before[i] = w.scans.Load()
	}
	statsBefore := f.coord.Stats()

	q := scanDay(gen.AgentWinClient, 1)
	got, err := f.coord.Run(context.Background(), q)
	if err != nil {
		t.Fatalf("constrained scan: %v", err)
	}
	if want := f.single.Run(context.Background(), q); len(got) != len(want) {
		t.Fatalf("pruned scan returned %d matches, single store %d", len(got), len(want))
	}

	statsAfter := f.coord.Stats()
	if d := statsAfter.WorkerRequests - statsBefore.WorkerRequests; d != 1 {
		t.Errorf("scan issued %d worker requests, want exactly 1", d)
	}
	if d := statsAfter.WorkersPruned - statsBefore.WorkersPruned; d != uint64(n-1) {
		t.Errorf("scan pruned %d workers, want %d", d, n-1)
	}
	for i, w := range f.workers {
		hits := w.scans.Load() - before[i]
		switch {
		case i == home && hits != 1:
			t.Errorf("home worker %d served %d scans, want 1", i, hits)
		case i != home && hits != 0:
			t.Errorf("pruned worker %d served %d scans, want 0", i, hits)
		}
	}
}

// TestUnconstrainedScanFansOutEverywhere is the pruning control: without
// spatial/temporal constraints every worker must be asked.
func TestUnconstrainedScanFansOutEverywhere(t *testing.T) {
	f := clusterFixture(t)
	before := f.coord.Stats()
	q := &storage.DataQuery{Ops: types.NewOpSet(types.OpExecute)}
	if _, err := f.coord.Run(context.Background(), q); err != nil {
		t.Fatalf("unconstrained scan: %v", err)
	}
	after := f.coord.Stats()
	if d := after.WorkerRequests - before.WorkerRequests; d != uint64(len(f.workers)) {
		t.Errorf("unconstrained scan issued %d requests, want %d", d, len(f.workers))
	}
}

// deadWorkerCluster builds a 3-worker cluster whose last worker streams a
// few valid records and then drops the connection mid-stream — the
// distributed analogue of kill -9 on a data node.
func deadWorkerCluster(t *testing.T) (*cluster.Coordinator, []*worker, int) {
	t.Helper()
	ws := startWorkers(2)
	t.Cleanup(func() {
		for _, w := range ws {
			w.srv.Close()
		}
	})
	ds := gen.Scenario(gen.Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 100, Seed: 5})

	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/scan" {
			// Accept ingest so cluster bring-up succeeds.
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "{}")
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set(cluster.ShardHeader, "2")
		w.Header().Set("Trailer", cluster.ScanRowsTrailer)
		fmt.Fprintln(w, `{"kind":"entity","id":1,"type":"process","agentid":1,"attrs":{"exe_name":"x"}}`)
		fmt.Fprintln(w, `{"kind":"event","id":1,"agentid":1,"subject":1,"object":1,"op":"read","start":42}`)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		// Die without the rows trailer: the coordinator must treat the
		// truncated stream as a worker failure, not a short result.
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(dying.Close)

	coord, err := cluster.New(append(workerURLs(ws), dying.URL), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Ingest(context.Background(), ds); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	return coord, ws, 2
}

// TestWorkerDeathMidStreamIsTypedPartialFailure kills one worker while it
// streams and asserts the failure surfaces — through the full engine
// execution path — as a *cluster.PartialError naming the dead shard,
// rather than a hang or a silently truncated result.
func TestWorkerDeathMidStreamIsTypedPartialFailure(t *testing.T) {
	coord, ws, deadShard := deadWorkerCluster(t)
	eng := engine.New(coord, engine.Options{})

	done := make(chan struct{})
	var res *engine.Result
	var err error
	go func() {
		defer close(done)
		res, err = eng.Query("proc p read file f return p, f")
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("query hung after worker death")
	}
	if err == nil {
		t.Fatalf("query succeeded with %d rows despite a dead worker", len(res.Rows))
	}
	var partial *cluster.PartialError
	if !errors.As(err, &partial) {
		t.Fatalf("error is %T (%v), want *cluster.PartialError", err, err)
	}
	if partial.Workers != 3 || partial.Contacted != 3 {
		t.Errorf("partial error reports %d/%d workers, want 3/3", partial.Contacted, partial.Workers)
	}
	found := false
	for _, f := range partial.Failed {
		if f.Shard == deadShard {
			found = true
			if f.Worker == "" || f.Err == nil {
				t.Errorf("failed worker detail incomplete: %+v", f)
			}
		}
	}
	if !found {
		t.Errorf("partial error %v does not name dead shard %d", partial, deadShard)
	}

	// The surviving workers' stores must release every snapshot and cursor
	// the aborted fan-out opened: the coordinator cancels the remaining
	// requests, each worker's /scan handler unwinds, and its deferred
	// cursor Close drops the snapshot. The unwind is asynchronous, so poll.
	deadline := time.Now().Add(10 * time.Second)
	for _, w := range ws {
		for {
			if w.store.LiveSnapshots() == 0 && w.store.LiveCursors() == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker leaked after mid-stream death: %d snapshots, %d cursors live",
					w.store.LiveSnapshots(), w.store.LiveCursors())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestScanCancellationPropagatesToWorkers cancels a coordinator scan while
// a worker streams an endless response and asserts (a) the consumer sees
// the context error, not a worker failure, and (b) the worker's request
// context is canceled promptly — the fan-out does not keep data nodes
// scanning for an abandoned query.
func TestScanCancellationPropagatesToWorkers(t *testing.T) {
	workerCanceled := make(chan struct{})
	endless := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/scan" {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "{}")
			return
		}
		flusher, _ := w.(http.Flusher)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set(cluster.ShardHeader, "0")
		fmt.Fprintln(w, `{"kind":"entity","id":1,"type":"process","agentid":1,"attrs":{"exe_name":"x"}}`)
		for i := 0; ; i++ {
			select {
			case <-r.Context().Done():
				close(workerCanceled)
				return
			case <-time.After(2 * time.Millisecond):
			}
			fmt.Fprintf(w, `{"kind":"event","id":%d,"agentid":1,"subject":1,"object":1,"op":"read","start":%d}`+"\n", i, i)
			if flusher != nil {
				flusher.Flush()
			}
		}
	}))
	t.Cleanup(endless.Close)

	coord, err := cluster.New([]string{endless.URL}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cur := coord.Scan(ctx, &storage.DataQuery{Ops: types.AllOps()})
	defer cur.Close()
	batch := make([]storage.Match, 8)
	if n := cur.Next(batch); n == 0 {
		t.Fatalf("no rows before cancel: %v", cur.Err())
	}
	cancel()
	deadline := time.After(10 * time.Second)
	for {
		if n := cur.Next(batch); n == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("cursor kept producing after cancel")
		default:
		}
	}
	if err := cur.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cursor error = %v, want context.Canceled", err)
	}
	select {
	case <-workerCanceled:
	case <-time.After(10 * time.Second):
		t.Fatal("worker request context never canceled")
	}
}

// TestMisorderedWorkersDetected gives the coordinator a -workers list
// whose order disagrees with the shard each worker believes it is (the
// restart-with-shuffled-urls mistake): a routed scan must fail with a
// typed error instead of silently answering from the wrong shard.
func TestMisorderedWorkersDetected(t *testing.T) {
	ws := startWorkers(2) // SetShard(0) and SetShard(1)
	t.Cleanup(func() {
		for _, w := range ws {
			w.srv.Close()
		}
	})
	// Swap the URLs: coordinator shard 0 is the worker labelled shard 1.
	coord, err := cluster.New([]string{ws[1].URL(), ws[0].URL()}, cluster.Options{Placement: mpp.SemanticsAware})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Run(context.Background(), &storage.DataQuery{Ops: types.AllOps()})
	var partial *cluster.PartialError
	if !errors.As(err, &partial) {
		t.Fatalf("misordered workers: error is %T (%v), want *cluster.PartialError", err, err)
	}
	if !strings.Contains(partial.Error(), "placement order") {
		t.Errorf("error does not explain the misordering: %v", partial)
	}
}

// TestIngestPartialFailure scatters into a cluster with one dead worker
// and asserts the typed error names it.
func TestIngestPartialFailure(t *testing.T) {
	ws := startWorkers(2)
	t.Cleanup(func() {
		for _, w := range ws {
			w.srv.Close()
		}
	})
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // connection refused from now on

	coord, err := cluster.New([]string{ws[0].URL(), ws[1].URL(), deadURL}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Scenario(gen.Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 50, Seed: 9})
	err = coord.Ingest(context.Background(), ds)
	var partial *cluster.PartialError
	if !errors.As(err, &partial) {
		t.Fatalf("ingest error is %T (%v), want *cluster.PartialError", err, err)
	}
	if partial.Op != "ingest" || len(partial.Failed) != 1 || partial.Failed[0].Shard != 2 {
		t.Errorf("unexpected partial error detail: %v", partial)
	}
}

// TestScanStatusErrorSurfacesAsWorkerError covers the non-200 path: a
// worker rejecting the scan (here: a malformed query it cannot decode)
// must produce a typed failure, not a decode hang.
func TestScanStatusErrorSurfacesAsWorkerError(t *testing.T) {
	reject := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/scan" {
			http.Error(w, `{"error":"no"}`, http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(reject.Close)
	coord, err := cluster.New([]string{reject.URL}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Run(context.Background(), &storage.DataQuery{Ops: types.AllOps()})
	var partial *cluster.PartialError
	if !errors.As(err, &partial) {
		t.Fatalf("error is %T (%v), want *cluster.PartialError", err, err)
	}
}

// truncatingWriter passes /scan bytes through (flushing each chunk so the
// client actually receives them) until limit bytes have gone out, then
// drops the connection — a data node dying while it streams its answer.
type truncatingWriter struct {
	http.ResponseWriter
	limit int
	sent  int
}

func (t *truncatingWriter) Write(p []byte) (int, error) {
	n, err := t.ResponseWriter.Write(p)
	t.sent += n
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	if err == nil && t.sent > t.limit {
		panic(http.ErrAbortHandler)
	}
	return n, err
}

func (t *truncatingWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// replicatedDyingCluster is deadWorkerCluster's R=2 counterpart: three real
// store-backed workers with dual-write replication, where the last worker
// streams a real prefix of every /scan answer and then drops the
// connection. Unlike the fake dying worker above, its partial rows are
// genuine data — exactly what a failover retry must deduplicate.
func replicatedDyingCluster(t *testing.T) (*cluster.Coordinator, []*worker, *storage.Store, int) {
	t.Helper()
	const deadShard = 2
	ws := make([]*worker, 3)
	for i := range ws {
		st := storage.New(storage.Options{})
		s := server.New(st, engine.New(st, engine.Options{}), server.Options{})
		s.SetShard(i)
		h := s.Handler()
		w := &worker{store: st}
		idx := i
		w.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/scan" {
				w.scans.Add(1)
				if idx == deadShard {
					rw = &truncatingWriter{ResponseWriter: rw, limit: 2048}
				}
			}
			h.ServeHTTP(rw, r)
		}))
		t.Cleanup(w.srv.Close)
		ws[i] = w
	}

	ds := gen.Scenario(gen.Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 100, Seed: 5})
	single := storage.New(storage.Options{})
	single.Ingest(ds)

	coord, err := cluster.New(workerURLs(ws), cluster.Options{Placement: mpp.SemanticsAware, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Ingest(context.Background(), ds); err != nil {
		t.Fatalf("replicated ingest: %v", err)
	}
	return coord, ws, single, deadShard
}

// TestWorkerDeathMidStreamFailsOverToReplica is the replicated flip of
// TestWorkerDeathMidStreamIsTypedPartialFailure: the same mid-stream worker
// death, but with R=2 the coordinator retries the shard on its replica and
// the query SUCCEEDS with the exact single-store answer — no PartialError,
// and no duplicated rows from the truncated first attempt.
func TestWorkerDeathMidStreamFailsOverToReplica(t *testing.T) {
	coord, ws, single, _ := replicatedDyingCluster(t)
	eng := engine.New(coord, engine.Options{})
	singleEng := engine.New(single, engine.Options{})
	const src = "proc p read file f return p, f"

	before := coord.Stats()
	done := make(chan struct{})
	var res *engine.Result
	var err error
	go func() {
		defer close(done)
		res, err = eng.Query(src)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("query hung after worker death")
	}
	if err != nil {
		t.Fatalf("query failed despite a live replica of every shard: %v", err)
	}

	want, err := singleEng.Query(src)
	if err != nil {
		t.Fatalf("reference query: %v", err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("reference query returned no rows; the failover proved nothing")
	}
	if queries.Canonical(res.Rows) != queries.Canonical(want.Rows) {
		t.Errorf("failover answer has %d rows, single store %d (row sets differ)",
			len(res.Rows), len(want.Rows))
	}
	if d := coord.Stats().Failovers - before.Failovers; d == 0 {
		t.Error("failovers counter did not move; the dead worker's stream was never retried on the replica")
	}

	// Satellite check: the failover path must release every snapshot and
	// cursor it opened on every worker — including the aborted first
	// attempt on the dead worker. The unwind is asynchronous, so poll.
	deadline := time.Now().Add(10 * time.Second)
	for i, w := range ws {
		for {
			if w.store.LiveSnapshots() == 0 && w.store.LiveCursors() == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %d leaked after failover: %d snapshots, %d cursors live",
					i, w.store.LiveSnapshots(), w.store.LiveCursors())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestIngestRetryDoesNotDuplicate reproduces the retry-storm bug: a worker
// applies an ingest batch but the acknowledgement is lost, the coordinator
// retries, and — without the (epoch, shard, seq) tag — the batch would land
// twice. The tagged ingest path must count every event exactly once.
func TestIngestRetryDoesNotDuplicate(t *testing.T) {
	var ackLost atomic.Bool
	ws := make([]*worker, 2)
	for i := range ws {
		st := storage.New(storage.Options{})
		s := server.New(st, engine.New(st, engine.Options{}), server.Options{})
		s.SetShard(i)
		h := s.Handler()
		w := &worker{store: st}
		idx := i
		w.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/ingest" && idx == 0 && ackLost.CompareAndSwap(false, true) {
				// Apply the batch for real, then fail the response: the
				// work landed but the coordinator sees a retryable error.
				h.ServeHTTP(httptest.NewRecorder(), r)
				rw.WriteHeader(http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(rw, r)
		}))
		t.Cleanup(w.srv.Close)
		ws[i] = w
	}

	coord, err := cluster.New(workerURLs(ws), cluster.Options{Placement: mpp.SemanticsAware})
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Scenario(gen.Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 50, Seed: 11})
	if err := coord.Ingest(context.Background(), ds); err != nil {
		t.Fatalf("ingest with lost ack: %v", err)
	}
	if !ackLost.Load() {
		t.Fatal("the fault was never injected; the test exercised nothing")
	}

	n := len(ws)
	want := make([]int, n)
	for i := range ds.Events {
		ev := &ds.Events[i]
		want[mpp.SemanticsAware.Shard(ev.AgentID, timeutil.DayIndex(ev.Start), n)]++
	}
	for i, w := range ws {
		if got := w.store.EventCount(); got != want[i] {
			t.Errorf("worker %d holds %d events, placement assigns %d — retry duplicated or lost a batch",
				i, got, want[i])
		}
	}
	if stats := coord.Stats(); stats.IngestRetries == 0 {
		t.Error("ingest retries counter did not move despite the injected 500")
	}
	if rs := ws[0].store.ReplStats(); rs.Duplicates == 0 {
		t.Error("worker 0 recorded no duplicate suppression; the retry was not deduplicated by tag")
	}
}
