// Package server exposes an AIQL database as a resident HTTP/JSON query
// service. One process loads (or generates) a dataset once, then serves
// concurrent investigations over it — amortizing ingest and query
// compilation across many analysts, where the one-shot CLIs pay both costs
// on every invocation.
//
// Endpoints:
//
//	POST /query          execute one AIQL query (JSON {"query": "..."} or raw text)
//	POST /ingest         append a JSON-lines trace batch (aiqlgen wire format)
//	POST /scan           execute one storage-level data query, streaming NDJSON
//	                     matches (the worker-facing endpoint of the cluster
//	                     tier; store-backed servers only)
//	POST /rules          register a standing AIQL rule (continuous query)
//	GET  /rules          list standing rules; DELETE /rules/{id} unregisters
//	GET  /subscribe/{id} live NDJSON/SSE stream of a rule's matches
//	GET  /stats          store statistics, cache and streaming counters
//	GET  /healthz        liveness probe
//
// A server runs in one of two modes. Store-backed (New): queries execute
// against the local store, and /scan lets a cluster coordinator use this
// process as a worker shard. Coordinator (NewCoordinator): queries execute
// through a cluster.Coordinator that scatters each data query to worker
// aiqld processes and gathers their streams; /ingest scatters batches by
// placement; /stats reports the cluster counters. See docs/CLUSTER.md.
//
// Two caches sit in front of the engine. The plan cache maps normalized
// query text to its compiled plan, so repeated investigations skip the
// parse/compile front end. The result cache maps (plan, store generation)
// to the materialized result; ingesting new events bumps the generation,
// which invalidates every cached result at once.
//
// Every query executes against one immutable storage snapshot acquired at
// request start, so concurrent /ingest traffic neither blocks the query
// nor tears its view — the snapshot's generation is the result-cache key,
// exact by construction. Engine work is bound to the request context:
// clients that disconnect cancel their query mid-flight. Clients that send
// "Accept: application/x-ndjson" receive the result as newline-delimited
// JSON — a header object followed by one row per line, flushed
// incrementally on the wire — instead of a single JSON document.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aiql/internal/cluster"
	"aiql/internal/engine"
	"aiql/internal/obs"
	"aiql/internal/storage"
	"aiql/internal/stream"
	"aiql/internal/trace"
	"aiql/internal/types"
)

// Options configure the service's caches.
type Options struct {
	// PlanCacheSize bounds the compiled-plan cache (default 256 plans;
	// negative disables caching).
	PlanCacheSize int
	// ResultCacheSize bounds the result cache (default 128 results;
	// negative disables caching).
	ResultCacheSize int
	// MaxIngestBytes bounds one /ingest request body (default 256 MiB) so
	// a single client cannot OOM the daemon.
	MaxIngestBytes int64
	// MaxRules caps registered continuous-query rules (default 64). On a
	// worker serving a coordinator, each multi-pattern coordinator rule
	// costs one sub-rule per pattern.
	MaxRules int
	// StreamBuffer sizes each subscriber's emission buffer and each rule's
	// replay ring (default 256); a subscriber a full buffer behind is
	// disconnected.
	StreamBuffer int
	// SlowLogSize bounds the slow-query log served at /debug/slow (default
	// 32 entries; negative disables the log).
	SlowLogSize int
	// Logger, when set, receives structured per-request log lines stamped
	// with each request's trace ID. Nil disables request logging.
	Logger *obs.Logger
}

func (o Options) withDefaults() Options {
	if o.PlanCacheSize == 0 {
		o.PlanCacheSize = 256
	}
	if o.ResultCacheSize == 0 {
		o.ResultCacheSize = 128
	}
	if o.MaxIngestBytes == 0 {
		o.MaxIngestBytes = 256 << 20
	}
	if o.SlowLogSize == 0 {
		o.SlowLogSize = 32
	}
	return o
}

// newSlowLog maps the option to a slow log: nil (all methods no-op) when
// disabled.
func newSlowLog(n int) *obs.SlowLog {
	if n < 0 {
		return nil
	}
	return obs.NewSlowLog(n)
}

// Server serves AIQL queries over a shared store and engine — or, in
// coordinator mode, over a cluster of worker servers.
type Server struct {
	store       *storage.Store
	durable     *storage.Persistent // non-nil when the store is disk-backed
	coord       *cluster.Coordinator
	eng         *engine.Engine
	matcher     *stream.Matcher // continuous queries (store-backed modes)
	plans       *PlanCache
	results     *ResultCache
	maxIngest   int64
	shard       int // this worker's shard index; -1 when not a worker
	started     time.Time
	queries     atomic.Uint64
	ingests     atomic.Uint64
	scans       atomic.Uint64
	subscribers atomic.Int64

	// Observability plane: structured request logs, the slow-query log
	// (/debug/slow), the in-flight registry (/debug/queries), and the
	// Prometheus-style metrics registry (/metrics). The registry is built
	// once, on the first Handler call, so it sees the server's final mode
	// (durable, coordinator, worker shard) regardless of construction order.
	logger    *obs.Logger
	slow      *obs.SlowLog
	inflight  *obs.Inflight
	obsOnce   sync.Once
	metrics   *obs.Registry
	queryDur  *obs.Histogram
	ingestDur *obs.Histogram
	httpReqs  *obs.CounterVec
}

// New creates a service over an existing store and engine. The store's
// ingest tap is claimed for the service's continuous-query matcher: every
// batch applied through /ingest (or directly on the store) is evaluated
// against the registered standing rules.
func New(st *storage.Store, eng *engine.Engine, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		store:     st,
		eng:       eng,
		matcher:   stream.NewMatcher(st, stream.Options{MaxRules: opts.MaxRules, BufferSize: opts.StreamBuffer}),
		plans:     NewPlanCache(opts.PlanCacheSize),
		results:   NewResultCache(opts.ResultCacheSize),
		maxIngest: opts.MaxIngestBytes,
		shard:     -1,
		started:   time.Now(), //aiql:ignore wallclock -- uptime reporting is operational, not query-determinism-sensitive
		logger:    opts.Logger,
		slow:      newSlowLog(opts.SlowLogSize),
		inflight:  obs.NewInflight(),
	}
	st.SetIngestObserver(s.matcher.OnIngest)
	return s
}

// NewCoordinator creates a service that executes queries through a cluster
// coordinator instead of a local store: /query runs plans whose data
// queries scatter to the workers, /ingest scatters event batches by
// placement, /stats reports the cluster's scatter/gather counters. The
// engine must have been built over coord. There is no result cache in this
// mode — the coordinator cannot observe worker-local ingests, so it has no
// generation to key cached results by; the plan cache still applies.
func NewCoordinator(coord *cluster.Coordinator, eng *engine.Engine, opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		coord:     coord,
		eng:       eng,
		plans:     NewPlanCache(opts.PlanCacheSize),
		results:   NewResultCache(-1),
		maxIngest: opts.MaxIngestBytes,
		shard:     -1,
		started:   time.Now(), //aiql:ignore wallclock -- uptime reporting is operational, not query-determinism-sensitive
		logger:    opts.Logger,
		slow:      newSlowLog(opts.SlowLogSize),
		inflight:  obs.NewInflight(),
	}
}

// SetShard labels this server as worker shard i for /scan and /stats
// responses (informational; the coordinator's worker order is
// authoritative for placement).
func (s *Server) SetShard(i int) { s.shard = i }

// NewPersistent creates a service over a disk-backed store: queries run
// against the embedded in-memory store exactly as in New, while /ingest
// routes through the write-ahead log so acknowledged batches survive a
// restart. Recovery must complete before serving — NewPersistent warms the
// segment payloads up front rather than on the first analyst's query.
func NewPersistent(p *storage.Persistent, eng *engine.Engine, opts Options) (*Server, error) {
	if err := p.WarmUp(); err != nil {
		return nil, err
	}
	s := New(p.Store, eng, opts)
	s.durable = p
	return s, nil
}

// Handler returns the service's HTTP routes, wrapped in the trace
// middleware: every request gets a trace ID (accepted from X-Aiql-Trace or
// minted), echoed on the response and carried in the request context for
// the layers below.
func (s *Server) Handler() http.Handler {
	s.obsOnce.Do(s.buildMetrics)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", s.metrics)
	mux.HandleFunc("GET /debug/slow", s.handleDebugSlow)
	mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	mux.HandleFunc("POST /rules", s.handleRuleCreate)
	mux.HandleFunc("GET /rules", s.handleRuleList)
	mux.HandleFunc("DELETE /rules/{id}", s.handleRuleDelete)
	mux.HandleFunc("GET /subscribe/{id}", s.handleSubscribe)
	if s.store != nil {
		mux.HandleFunc("POST /scan", s.handleScan)
	}
	if s.durable != nil {
		// Replication transport (durable workers only): a peer pulls this
		// worker's tagged WAL history to catch a replica up, and /catchup
		// asks this worker to pull from a peer.
		mux.HandleFunc("GET /walship", s.handleWalShip)
		mux.HandleFunc("POST /catchup", s.handleCatchup)
	}
	return s.withObs(mux)
}

// QueryResponse is the JSON reply to /query.
type QueryResponse struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// RowCount duplicates len(rows) so clients truncating large results
	// still see the true cardinality.
	RowCount    int  `json:"row_count"`
	DataQueries int  `json:"data_queries"`
	TuplesMax   int  `json:"tuples_max"`
	PlanCached  bool `json:"plan_cached"`
	// ResultCached reports that the rows were served straight from the
	// result cache without touching the store.
	ResultCached bool    `json:"result_cached"`
	ElapsedMs    float64 `json:"elapsed_ms"`
	// TraceID identifies this request's trace, for correlating the reply
	// with server logs, /debug/slow entries and worker-side spans.
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the request's span tree — how the elapsed time divides
	// across parse/plan, snapshot pin, per-pattern scans (with block-level
	// skip counters), joins, the merge, and per-worker legs on a
	// coordinator. Present only when the client asked (?trace=1 or
	// {"trace": true}).
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

// queryRequest is the JSON form of a /query body.
type queryRequest struct {
	Query string `json:"query"`
	// Trace asks for the span tree in the response.
	Trace bool `json:"trace,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	src, wantTrace, err := readQuery(w, r)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.httpTraceError(w, r, status, err)
		return
	}
	s.queries.Add(1)
	ctx := r.Context()
	tr := obs.FromContext(ctx)
	iq := s.inflight.Register(tr, engine.Normalize(src))
	defer iq.Done()
	start := obs.Now()
	var resp *QueryResponse
	if s.coord != nil {
		resp, err = s.executeCluster(ctx, src)
	} else {
		resp, err = s.execute(ctx, src)
	}
	dur := obs.Since(start)
	s.queryDur.Observe(dur.Seconds())
	if err != nil {
		s.recordQuery(ctx, tr, src, dur, 0, false, err)
		if ctx.Err() != nil {
			// The client disconnected and the engine aborted; nobody is
			// listening for a reply.
			return
		}
		status := http.StatusBadRequest
		if errors.Is(err, engine.ErrTooLarge) {
			status = http.StatusUnprocessableEntity
		}
		var partial *cluster.PartialError
		if errors.As(err, &partial) {
			// Workers failed mid-query: the cluster, not the query, is at
			// fault.
			status = http.StatusBadGateway
		}
		s.httpTraceError(w, r, status, err)
		return
	}
	resp.ElapsedMs = float64(dur.Microseconds()) / 1000
	resp.TraceID = tr.ID()
	iq.AddRows(resp.RowCount)
	s.recordQuery(ctx, tr, src, dur, resp.RowCount, resp.ResultCached, nil)
	if wantTrace || r.URL.Query().Get("trace") == "1" {
		resp.Trace = tr.Snapshot()
	}
	if ndjsonRequested(r) {
		writeNDJSON(w, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// recordQuery feeds a completed query to the slow log and the request log.
func (s *Server) recordQuery(ctx context.Context, tr *obs.Trace, src string, dur time.Duration, rows int, cached bool, err error) {
	durMs := float64(dur.Microseconds()) / 1000
	e := &obs.SlowEntry{
		TraceID: tr.ID(),
		Query:   engine.Normalize(src),
		Start:   obs.FormatStart(tr.Start()),
		DurMs:   durMs,
		Rows:    rows,
		Cached:  cached,
		Trace:   tr.Snapshot(),
	}
	if err != nil {
		e.Error = err.Error()
	}
	s.slow.Record(e)
	if s.logger != nil {
		kv := []any{"dur_ms", durMs, "rows", rows, "cached", cached}
		if err != nil {
			kv = append(kv, "error", err.Error())
		}
		s.logger.Log(ctx, "query", kv...)
	}
}

// execute runs one query through both caches: result cache, then plan
// cache, then the engine — the latter against a snapshot pinned for this
// request. The snapshot generation keys the result cache, so the old
// "did an ingest race with my execution?" re-check is gone: a result
// computed from a snapshot is correct for that generation by construction.
func (s *Server) execute(ctx context.Context, src string) (*QueryResponse, error) {
	tr := obs.FromContext(ctx)
	key := engine.Normalize(src)
	// Cache-hit hot path: a generation read is a shared RLock, so repeated
	// queries never pay snapshot acquisition (an exclusive lock plus
	// copy-on-write flagging) just to discover the answer is cached.
	gen := s.store.Generation()
	if res, ok := s.results.Get(key, gen); ok {
		// Peek, not Get: report the plan cache's true state without
		// perturbing its hit/miss counters.
		sp := tr.Span("result-cache")
		sp.Set("hit", "true")
		sp.End()
		return queryResponse(res, s.plans.Contains(key), true), nil
	}
	plan := tr.Span("plan")
	pq, planCached, err := s.preparedPlan(key, src)
	plan.Set("cached", strconv.FormatBool(planCached))
	plan.End()
	if err != nil {
		return nil, err
	}
	snap := s.store.Snapshot()
	defer snap.Close()
	if snap.Generation() != gen {
		// An ingest landed between the peek and the pin; the cache may
		// already hold the result for the generation we actually got.
		if res, ok := s.results.Get(key, snap.Generation()); ok {
			return queryResponse(res, planCached, true), nil
		}
	}
	res, err := pq.ExecuteOn(ctx, snap)
	if err != nil {
		return nil, err
	}
	s.results.Put(key, snap.Generation(), res)
	return queryResponse(res, planCached, false), nil
}

// preparedPlan serves a query's compiled plan through the plan cache,
// preparing and caching it on a miss — the front-end step shared by the
// local and cluster execution paths.
func (s *Server) preparedPlan(key, src string) (*engine.PreparedQuery, bool, error) {
	pq, planCached := s.plans.Get(key)
	if !planCached {
		var err error
		pq, err = s.eng.Prepare(src)
		if err != nil {
			return nil, false, err
		}
		s.plans.Put(key, pq)
	}
	return pq, planCached, nil
}

// executeCluster runs one query through the plan cache and the cluster
// coordinator. No result cache: worker stores can be ingested into without
// the coordinator noticing, so there is no generation that could validate
// a cached result.
func (s *Server) executeCluster(ctx context.Context, src string) (*QueryResponse, error) {
	plan := obs.FromContext(ctx).Span("plan")
	pq, planCached, err := s.preparedPlan(engine.Normalize(src), src)
	plan.Set("cached", strconv.FormatBool(planCached))
	plan.End()
	if err != nil {
		return nil, err
	}
	res, err := pq.Execute(ctx)
	if err != nil {
		return nil, err
	}
	return queryResponse(res, planCached, false), nil
}

// handleScan is the worker-facing endpoint of the distributed tier: it
// executes one storage-level data query (the cluster wire form) against
// the local store and streams the matches back as /ingest's JSON-lines:
// one event record per match, each entity sent once before the first
// event referencing it. A shard header opens the response and a rows
// trailer closes it, so the coordinator can tell a complete stream from a
// truncated one (docs/CLUSTER.md, "The /scan protocol"). The scan is bound
// to the request context: when the coordinator cancels (query canceled,
// another worker failed), the cursor's producers stop promptly.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	// The scan body is bounded by MaxIngestBytes too: a wire query's bulk
	// is its pushed-down allow-sets, which scale with prior pattern
	// results the same way an ingest batch scales with the trace — and a
	// hardcoded cap would make large constrained queries fail on a cluster
	// while succeeding single-node.
	var wq cluster.WireQuery
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxIngest))
	if err == nil {
		err = json.Unmarshal(body, &wq)
	}
	var q *storage.DataQuery
	if err == nil {
		q, err = wq.DataQuery()
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode scan query: %w", err))
		return
	}
	s.scans.Add(1)
	// A scan leg shows up in this worker's inspection plane too: the
	// coordinator's trace ID rode in on the request header, so the leg's
	// /debug entries here correlate with the coordinator's worker spans.
	ctx := r.Context()
	tr := obs.FromContext(ctx)
	span := tr.Span("scan-serve")
	span.Set("shard", strconv.Itoa(wq.Shard))
	ctx = obs.WithSpan(ctx, span)
	iq := s.inflight.Register(tr, "(scan) shard="+strconv.Itoa(wq.Shard))
	start := obs.Now()
	rows := 0
	var cur storage.Cursor
	// Registered before the cursor's deferred Close so it runs after it:
	// closing the cursor folds the store's block counters into the span,
	// and the slow-log snapshot must include them.
	defer func() {
		iq.Done()
		span.Add("rows", int64(rows))
		if cur != nil && cur.Err() != nil {
			span.Set("error", cur.Err().Error())
		}
		span.End()
		dur := obs.Since(start)
		e := &obs.SlowEntry{
			TraceID: tr.ID(),
			Query:   "(scan) shard=" + strconv.Itoa(wq.Shard),
			Start:   obs.FormatStart(tr.Start()),
			DurMs:   float64(dur.Microseconds()) / 1000,
			Rows:    rows,
			Trace:   tr.Snapshot(),
		}
		if cur != nil && cur.Err() != nil {
			e.Error = cur.Err().Error()
		}
		s.slow.Record(e)
		if s.logger != nil {
			s.logger.Log(r.Context(), "scan", "shard", wq.Shard, "dur_ms", e.DurMs, "rows", rows)
		}
	}()
	if wq.NShards > 0 {
		// Replicated cluster: this store holds two shards' data (its own
		// plus the one it replicates), and the coordinator asked for one.
		// The limit moves out of the pushed-down query — applied before
		// the home-shard filter it would undercount.
		limit := q.Limit
		q.Limit = 0
		cur = &shardFilterCursor{
			inner:   s.store.Scan(ctx, q),
			shard:   wq.Shard,
			nshards: wq.NShards,
			limit:   limit,
		}
	} else {
		cur = s.store.Scan(ctx, q)
	}
	defer cur.Close()

	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set(cluster.ShardHeader, strconv.Itoa(s.shard))
	h.Set("Trailer", cluster.ScanRowsTrailer+", "+cluster.ScanErrorTrailer)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush()

	enc := trace.NewEncoder(w)
	sentEnts := make(map[types.EntityID]struct{})
	batch := make([]storage.Match, storage.ScanBatchSize)
	for {
		n := cur.Next(batch)
		if n == 0 {
			break
		}
		iq.AddRows(n)
		for _, m := range batch[:n] {
			for _, e := range [2]*types.Entity{m.Subj, m.Obj} {
				if _, ok := sentEnts[e.ID]; !ok {
					sentEnts[e.ID] = struct{}{}
					if err := enc.Entity(e); err != nil {
						return
					}
				}
			}
			if err := enc.Event(m.Event); err != nil {
				return
			}
			rows++
		}
		flush()
	}
	if err := cur.Err(); err != nil {
		// The stream is already underway; report the failure in the error
		// trailer. A canceled request needs no trailer — nobody is
		// listening.
		if r.Context().Err() == nil {
			h.Set(cluster.ScanErrorTrailer, err.Error())
		}
		return
	}
	h.Set(cluster.ScanRowsTrailer, strconv.Itoa(rows))
}

// ndjsonRequested reports whether the client asked for streaming NDJSON.
// A q-value of 0 means "explicitly not acceptable" (RFC 9110 §12.4.2).
func ndjsonRequested(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			mt, params, err := mime.ParseMediaType(part)
			if err != nil || mt != "application/x-ndjson" {
				continue
			}
			if q, qerr := strconv.ParseFloat(params["q"], 64); qerr == nil && q <= 0 {
				continue
			}
			return true
		}
	}
	return false
}

// streamHeader is the first NDJSON line: everything QueryResponse carries
// except the rows, which follow one per line as JSON arrays.
type streamHeader struct {
	Columns      []string       `json:"columns"`
	RowCount     int            `json:"row_count"`
	DataQueries  int            `json:"data_queries"`
	TuplesMax    int            `json:"tuples_max"`
	PlanCached   bool           `json:"plan_cached"`
	ResultCached bool           `json:"result_cached"`
	ElapsedMs    float64        `json:"elapsed_ms"`
	TraceID      string         `json:"trace_id,omitempty"`
	Trace        *obs.TraceJSON `json:"trace,omitempty"`
}

// writeNDJSON writes a result as newline-delimited JSON, flushing every
// few hundred rows so consumers can process rows as they arrive. The
// streaming is wire-level: the engine still materializes the full Result
// (row_count in the header depends on it) before the first byte goes out;
// pushing cursors through projection to make the rows themselves lazy is
// the natural next step on top of this wire format.
func writeNDJSON(w http.ResponseWriter, resp *QueryResponse) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(&streamHeader{
		Columns:      resp.Columns,
		RowCount:     resp.RowCount,
		DataQueries:  resp.DataQueries,
		TuplesMax:    resp.TuplesMax,
		PlanCached:   resp.PlanCached,
		ResultCached: resp.ResultCached,
		ElapsedMs:    resp.ElapsedMs,
		TraceID:      resp.TraceID,
		Trace:        resp.Trace,
	})
	flusher, _ := w.(http.Flusher)
	for i, row := range resp.Rows {
		if err := enc.Encode(row); err != nil {
			return
		}
		if flusher != nil && i%256 == 255 {
			flusher.Flush()
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
}

func queryResponse(res *engine.Result, planCached, resultCached bool) *QueryResponse {
	return &QueryResponse{
		Columns:      res.Columns,
		Rows:         res.Rows,
		RowCount:     len(res.Rows),
		DataQueries:  res.DataQueries,
		TuplesMax:    res.TuplesMax,
		PlanCached:   planCached,
		ResultCached: resultCached,
	}
}

// readQuery extracts the AIQL source from a /query body (and whether the
// client asked for the trace block): a JSON object for application/json,
// the raw body otherwise. Bodies over 1 MiB are rejected rather than
// truncated — a silently clipped query could still parse and would then
// execute as a different query than the client sent.
func readQuery(w http.ResponseWriter, r *http.Request) (string, bool, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		return "", false, fmt.Errorf("read body: %w", err)
	}
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ct == "application/json" {
		var req queryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return "", false, fmt.Errorf("parse request: %w", err)
		}
		if strings.TrimSpace(req.Query) == "" {
			return "", false, fmt.Errorf("empty query")
		}
		return req.Query, req.Trace, nil
	}
	if strings.TrimSpace(string(body)) == "" {
		return "", false, fmt.Errorf("empty query")
	}
	return string(body), false, nil
}

// IngestResponse is the JSON reply to /ingest.
type IngestResponse struct {
	Entities   int    `json:"entities"`
	Events     int    `json:"events"`
	Generation uint64 `json:"generation"`
	// Workers is the number of worker shards the batch was scattered to
	// (coordinator mode only).
	Workers int `json:"workers,omitempty"`
	// Duplicate reports that a replication-tagged batch was already
	// applied and this request was a no-op — the idempotent answer to a
	// coordinator retry or an overlapping catch-up.
	Duplicate bool `json:"duplicate,omitempty"`
}

// handleIngest appends a batch of records in the aiqlgen JSON-lines wire
// format (entity and event lines in any order). The batch is staged into a
// dataset first, then ingested under the store's write lock, so concurrent
// queries see either none or all of the batch.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ds, err := trace.Read(http.MaxBytesReader(w, r.Body, s.maxIngest))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.httpTraceError(w, r, status, err)
		return
	}
	start := obs.Now()
	defer func() {
		s.ingestDur.Observe(obs.Since(start).Seconds())
	}()
	if s.coord != nil {
		// Scatter the batch across the worker shards by placement.
		if err := s.coord.Ingest(r.Context(), ds); err != nil {
			s.httpTraceError(w, r, http.StatusBadGateway, err)
			return
		}
		s.ingests.Add(1)
		writeJSON(w, http.StatusOK, &IngestResponse{
			Entities: len(ds.Entities),
			Events:   len(ds.Events),
			Workers:  len(s.coord.Workers()),
		})
		return
	}
	tag, role, hasTag, err := replTagFromRequest(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	duplicate := false
	switch {
	case hasTag && s.durable != nil:
		applied, err := s.durable.IngestTagged(tag, ds, replQuiet(role))
		if err != nil {
			httpError(w, http.StatusInternalServerError, fmt.Errorf("durable ingest: %w", err))
			return
		}
		duplicate = !applied
	case hasTag:
		duplicate = !s.store.IngestTagged(tag, ds, replQuiet(role))
	case s.durable != nil:
		// Journal before applying: the batch is only acknowledged once the
		// WAL accepted it, so an acknowledged ingest survives a crash.
		if err := s.durable.Ingest(ds); err != nil {
			httpError(w, http.StatusInternalServerError, fmt.Errorf("durable ingest: %w", err))
			return
		}
	default:
		s.store.Ingest(ds)
	}
	// The generation bump already invalidates cached results; purging
	// eagerly frees their memory instead of waiting for LRU pressure.
	s.results.Purge()
	s.ingests.Add(1)
	writeJSON(w, http.StatusOK, &IngestResponse{
		Entities:   len(ds.Entities),
		Events:     len(ds.Events),
		Generation: s.store.Generation(),
		Duplicate:  duplicate,
	})
}

// StatsResponse is the JSON reply to /stats.
type StatsResponse struct {
	Role          string     `json:"role"`
	Events        int        `json:"events"`
	Partitions    int        `json:"partitions"`
	Agents        []int      `json:"agents"`
	Days          []int      `json:"days"`
	Generation    uint64     `json:"generation"`
	LiveSnapshots int        `json:"live_snapshots"`
	LiveCursors   int        `json:"live_cursors"`
	QueriesServed uint64     `json:"queries_served"`
	IngestBatches uint64     `json:"ingest_batches"`
	ScansServed   uint64     `json:"scans_served"`
	UptimeSeconds float64    `json:"uptime_seconds"`
	PlanCache     CacheStats `json:"plan_cache"`
	ResultCache   CacheStats `json:"result_cache"`
	// Shard is this worker's shard index; nil when the server is not a
	// cluster worker.
	Shard *int `json:"shard,omitempty"`
	// Cluster carries the coordinator's scatter/gather counters
	// (coordinator mode only).
	Cluster *cluster.Stats `json:"cluster,omitempty"`
	// Workers lists the worker base URLs in shard order (coordinator mode
	// only).
	Workers []string `json:"workers,omitempty"`
	// Durability carries the WAL depth, segment counts and recovery
	// counters when the store is disk-backed (aiqld -data-dir).
	Durability *storage.DurabilityStats `json:"durability,omitempty"`
	// Scan carries the store's block-level scan counters: zone-map skips
	// versus decodes over sealed columnar segments, and cold-partition
	// thaws. Absent on coordinators, which hold no data themselves.
	Scan *storage.ScanStats `json:"scan,omitempty"`
	// Streaming carries the continuous-query counters: registered rules,
	// live subscribers, emissions, slow-consumer drops and join-state
	// bounds. On a coordinator the numbers are the merge layer's.
	Streaming *stream.Stats `json:"streaming,omitempty"`
	// Replication carries the store's replicated-ingest applied/duplicate
	// counters and per-(epoch, shard) applied-state (store-backed modes);
	// on a coordinator the replication counters live in Cluster.
	Replication *storage.ReplStats `json:"replication,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if s.coord != nil {
		cs := s.coord.Stats()
		ss := s.coord.StreamingStats()
		ss.Subscribers = int(s.subscribers.Load())
		writeJSON(w, http.StatusOK, &StatsResponse{
			Role:          "coordinator",
			QueriesServed: s.queries.Load(),
			IngestBatches: s.ingests.Load(),
			UptimeSeconds: time.Since(s.started).Seconds(),
			PlanCache:     s.plans.Stats(),
			ResultCache:   s.results.Stats(),
			Cluster:       &cs,
			Workers:       s.coord.Workers(),
			Streaming:     &ss,
		})
		return
	}
	resp := &StatsResponse{
		Role:          "single",
		Events:        s.store.EventCount(),
		Partitions:    s.store.PartitionCount(),
		Agents:        s.store.Agents(),
		Days:          s.store.Days(),
		Generation:    s.store.Generation(),
		LiveSnapshots: s.store.LiveSnapshots(),
		LiveCursors:   s.store.LiveCursors(),
		QueriesServed: s.queries.Load(),
		IngestBatches: s.ingests.Load(),
		ScansServed:   s.scans.Load(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		PlanCache:     s.plans.Stats(),
		ResultCache:   s.results.Stats(),
	}
	if s.shard >= 0 {
		resp.Role = "worker"
		shard := s.shard
		resp.Shard = &shard
	}
	if s.durable != nil {
		ds := s.durable.DurabilityStats()
		resp.Durability = &ds
	}
	sc := s.store.ScanStats()
	resp.Scan = &sc
	ss := s.matcher.Stats()
	resp.Streaming = &ss
	rs := s.store.ReplStats()
	resp.Replication = &rs
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
