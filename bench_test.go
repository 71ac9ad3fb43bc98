// Benchmarks regenerating the paper's evaluation artifacts (one per table
// and figure — see DESIGN.md's experiment index) plus ablation benchmarks
// for the design choices the paper calls out. `go test -bench=. -benchmem`
// runs everything on a reduced dataset; `cmd/aiqlbench` runs the same
// experiments at full scale with the paper-style table output.
package aiql_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"net/http/httptest"

	"aiql/internal/bench"
	"aiql/internal/concise"
	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/graphstore"
	"aiql/internal/mpp"
	"aiql/internal/obs"
	"aiql/internal/parser"
	"aiql/internal/pred"
	"aiql/internal/queries"
	"aiql/internal/server"
	"aiql/internal/storage"
	"aiql/internal/trace"
	"aiql/internal/types"
)

// benchCfg keeps `go test -bench=.` affordable; cmd/aiqlbench uses the
// full default scale.
var benchCfg = gen.Config{Hosts: 12, Days: 3, BackgroundPerHostDay: 8000, Seed: 1}

var (
	dsOnce sync.Once
	dsVal  *types.Dataset
)

func benchDataset() *types.Dataset {
	dsOnce.Do(func() { dsVal = gen.Scenario(benchCfg) })
	return dsVal
}

var (
	engOnce sync.Once
	engines map[string]*engine.Engine
)

// benchEngines builds every engine configuration once: the end-to-end
// systems, the Fig. 6 schedulers, the Fig. 7 clusters, and the ablations.
func benchEngines() map[string]*engine.Engine {
	engOnce.Do(func() {
		ds := benchDataset()
		engines = make(map[string]*engine.Engine)

		opt := storage.New(storage.Options{})
		opt.Ingest(ds)
		engines["aiql"] = engine.New(opt, engine.Options{})
		engines["ff"] = engine.New(opt, engine.Options{Strategy: engine.StrategyFetchFilter})
		engines["pg-sched"] = engine.New(opt, engine.Options{Strategy: engine.StrategyBigJoin, DisableSplitDays: true})
		// Ablations over the same optimized store.
		engines["no-score-sort"] = engine.New(opt, engine.Options{NoScoreSort: true})
		engines["no-pushdown"] = engine.New(opt, engine.Options{NoPushdown: true})
		engines["no-splitdays"] = engine.New(opt, engine.Options{DisableSplitDays: true})
		engines["no-hashjoin"] = engine.New(opt, engine.Options{NoHashJoin: true})
		engines["stats-scoring"] = engine.New(opt, engine.Options{StatsScoring: true})

		pgStore := storage.New(storage.Options{DisablePruning: true, Workers: 1})
		pgStore.Ingest(ds)
		engines["postgres"] = engine.New(pgStore, engine.Options{Strategy: engine.StrategyBigJoin, DisableSplitDays: true})

		noIdx := storage.New(storage.Options{DisableIndexes: true})
		noIdx.Ingest(ds)
		engines["no-indexes"] = engine.New(noIdx, engine.Options{})

		noPrune := storage.New(storage.Options{DisablePruning: true})
		noPrune.Ingest(ds)
		engines["no-pruning"] = engine.New(noPrune, engine.Options{})

		g := graphstore.New()
		g.Ingest(ds)
		engines["neo4j"] = engine.New(g, engine.Options{Strategy: engine.StrategyBigJoin, DisableSplitDays: true, NoHashJoin: true})

		gp := mpp.New(5, mpp.ArrivalOrder, storage.Options{})
		gp.Ingest(ds)
		engines["greenplum"] = engine.New(gp, engine.Options{Strategy: engine.StrategyBigJoin, DisableSplitDays: true})

		sem := mpp.New(5, mpp.SemanticsAware, storage.Options{})
		sem.Ingest(ds)
		engines["mpp-aiql"] = engine.New(sem, engine.Options{})
	})
	return engines
}

// runCorpus executes a query list against one engine, failing the benchmark
// on query errors (budget exhaustion by a baseline is tolerated — it is the
// paper's "did not finish within 1 hour").
func runCorpus(b *testing.B, e *engine.Engine, qs []queries.Query) {
	b.Helper()
	for _, q := range qs {
		res, err := e.Query(q.Src)
		if err != nil {
			if errors.Is(err, engine.ErrTooLarge) {
				continue
			}
			b.Fatalf("%s: %v", q.ID, err)
		}
		_ = res
	}
}

func caseStudyQueries() []queries.Query {
	var out []queries.Query
	for _, q := range queries.CaseStudy() {
		if !q.Anomaly {
			out = append(out, q)
		}
	}
	return out
}

// BenchmarkTable3CaseStudy regenerates Table 3: the 26-query investigation
// per end-to-end system.
func BenchmarkTable3CaseStudy(b *testing.B) {
	eng := benchEngines()
	cs := caseStudyQueries()
	for _, sys := range []string{"aiql", "postgres", "neo4j"} {
		b.Run(sys, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runCorpus(b, eng[sys], cs)
			}
		})
	}
}

// BenchmarkFig5PerQuery regenerates Fig. 5's shape on three representative
// investigation queries of growing pattern count (2, 4 and 6 patterns).
func BenchmarkFig5PerQuery(b *testing.B) {
	eng := benchEngines()
	byID := make(map[string]queries.Query)
	for _, q := range queries.CaseStudy() {
		byID[q.ID] = q
	}
	for _, id := range []string{"c2-1", "c5-7", "c4-8"} {
		for _, sys := range []string{"aiql", "postgres", "neo4j"} {
			q := byID[id]
			b.Run(fmt.Sprintf("%s/%s", id, sys), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runCorpus(b, eng[sys], []queries.Query{q})
				}
			})
		}
	}
}

// BenchmarkFig6Schedulers regenerates Fig. 6: the 19 behaviour queries per
// scheduler on identical single-node optimized storage.
func BenchmarkFig6Schedulers(b *testing.B) {
	eng := benchEngines()
	bq := queries.Behaviors()
	for _, sys := range []string{"pg-sched", "ff", "aiql"} {
		b.Run(sys, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runCorpus(b, eng[sys], bq)
			}
		})
	}
}

// BenchmarkFig7Parallel regenerates Fig. 7: Greenplum scheduling
// (arrival-order MPP placement + big join) vs AIQL scheduling
// (semantics-aware placement + Algorithm 1).
func BenchmarkFig7Parallel(b *testing.B) {
	eng := benchEngines()
	bq := queries.Behaviors()
	for _, sys := range []string{"greenplum", "mpp-aiql"} {
		b.Run(sys, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runCorpus(b, eng[sys], bq)
			}
		})
	}
}

// BenchmarkFig8Conciseness regenerates Fig. 8 / Table 5: translating the
// behaviour corpus to SQL/Cypher/SPL and measuring all four languages.
func BenchmarkFig8Conciseness(b *testing.B) {
	bq := queries.Behaviors()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range bq {
			if _, err := concise.Measure(q.ID, q.Src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable4MalwareQueries runs the five Table 4 malware behaviour
// queries on the full system.
func BenchmarkTable4MalwareQueries(b *testing.B) {
	eng := benchEngines()
	var vq []queries.Query
	for _, q := range queries.Behaviors() {
		if q.Group == "v" {
			vq = append(vq, q)
		}
	}
	for i := 0; i < b.N; i++ {
		runCorpus(b, eng["aiql"], vq)
	}
}

// --- Ablations (DESIGN.md Sec. 4) ---

// BenchmarkAblationPruningScore disables the pruning-score relationship
// ordering of Algorithm 1 (relationships processed in declaration order).
func BenchmarkAblationPruningScore(b *testing.B) {
	ablation(b, "aiql", "no-score-sort")
}

// BenchmarkAblationPushdown disables constrained execution (earlier results
// no longer narrow later data queries).
func BenchmarkAblationPushdown(b *testing.B) {
	ablation(b, "aiql", "no-pushdown")
}

// BenchmarkAblationParallelWindow disables the parallel per-day splitting
// of multi-day data queries.
func BenchmarkAblationParallelWindow(b *testing.B) {
	ablation(b, "aiql", "no-splitdays")
}

// BenchmarkAblationIndexes disables the entity hash indexes and posting
// lists (full partition scans with predicate evaluation).
func BenchmarkAblationIndexes(b *testing.B) {
	ablation(b, "aiql", "no-indexes")
}

// BenchmarkAblationPartitioning disables spatial/temporal partition pruning
// while keeping everything else.
func BenchmarkAblationPartitioning(b *testing.B) {
	ablation(b, "aiql", "no-pruning")
}

// BenchmarkAblationHashJoin forces nested-loop joins.
func BenchmarkAblationHashJoin(b *testing.B) {
	ablation(b, "aiql", "no-hashjoin")
}

// BenchmarkAblationStatsScoring replaces constraint-count pruning scores
// with index-derived cardinality estimates (paper Sec. 7 future work).
func BenchmarkAblationStatsScoring(b *testing.B) {
	ablation(b, "aiql", "stats-scoring")
}

func ablation(b *testing.B, baseline, variant string) {
	eng := benchEngines()
	all := append(caseStudyQueries(), queries.Behaviors()...)
	for _, sys := range []string{baseline, variant} {
		b.Run(sys, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runCorpus(b, eng[sys], all)
			}
		})
	}
}

// --- Microbenchmarks ---

// BenchmarkParse measures parsing of the largest corpus query.
func BenchmarkParse(b *testing.B) {
	var largest queries.Query
	for _, q := range queries.CaseStudy() {
		if q.Patterns > largest.Patterns {
			largest = q
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(largest.Src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngest measures store ingestion throughput.
func BenchmarkIngest(b *testing.B) {
	ds := benchDataset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := storage.New(storage.Options{})
		st.Ingest(ds)
	}
	reportEventsPerSec(b, len(ds.Events))
}

// reportEventsPerSec reports ingest throughput for a benchmark whose every
// op handles perOp events.
func reportEventsPerSec(b *testing.B, perOp int) {
	b.ReportMetric(float64(perOp)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTraceRead measures the /ingest decoder, trace.Read, on JSON-lines
// batches cut from the benchmark dataset: 250 events each (perfbench's
// history batch size), preceded by the entities they are first to
// reference, as an agent would send them. One op decodes one batch; CI
// gates its B/op.
func BenchmarkTraceRead(b *testing.B) {
	ds := benchDataset()
	const batches, batchEvents = 40, 250
	bodies := make([][]byte, 0, batches)
	sent := make(map[types.EntityID]bool)
	for lo := 0; len(bodies) < batches; lo += batchEvents {
		evs := append([]types.Event(nil), ds.Events[lo:lo+batchEvents]...)
		var ents []types.Entity
		for _, ev := range evs {
			for _, id := range [2]types.EntityID{ev.Subject, ev.Object} {
				if !sent[id] {
					sent[id] = true
					ents = append(ents, *ds.Entity(id))
				}
			}
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, types.NewDataset(ents, evs)); err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Read(bytes.NewReader(bodies[i%batches])); err != nil {
			b.Fatal(err)
		}
	}
	reportEventsPerSec(b, batchEvents)
}

// BenchmarkAnomalyWindow measures the sliding-window anomaly executor
// (behaviour s5: 8,640 windows over a day).
func BenchmarkAnomalyWindow(b *testing.B) {
	eng := benchEngines()
	var s5 queries.Query
	for _, q := range queries.Behaviors() {
		if q.ID == "s5" {
			s5 = q
		}
	}
	for i := 0; i < b.N; i++ {
		runCorpus(b, eng["aiql"], []queries.Query{s5})
	}
}

// BenchmarkPreparedVsCold quantifies the repeated-query fast paths the
// aiqld service is built on. "cold" pays lex/parse/compile/schedule on
// every execution (what the one-shot CLIs do); "prepared" reuses the
// compiled plan (engine.PreparedQuery, the plan cache's steady state);
// "cached" serves the materialized result keyed by (plan, store generation)
// without touching the store (the result cache's steady state).
func BenchmarkPreparedVsCold(b *testing.B) {
	eng := benchEngines()
	e := eng["aiql"]
	var q queries.Query
	for _, c := range queries.CaseStudy() {
		if c.ID == "c5-7" {
			q = c
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.Query(q.Src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		pq, err := e.Prepare(q.Src)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pq.Execute(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		pq, err := e.Prepare(q.Src)
		if err != nil {
			b.Fatal(err)
		}
		rc := server.NewResultCache(8)
		const gen = 1 // the benchmark store is never mutated
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, ok := rc.Get(pq.Src(), gen)
			if !ok {
				if res, err = pq.Execute(context.Background()); err != nil {
					b.Fatal(err)
				}
				rc.Put(pq.Src(), gen, res)
			}
			_ = res
		}
	})
}

// BenchmarkCursorVsMaterialize quantifies the snapshot/cursor refactor's
// point: a LIMIT-style query that needs the first k matches. The
// "materialize" case drains the full scan and post-filters (the old
// execution model — every byte of the result allocated before the limit
// applies); the "cursor" case pushes the limit into the scan, which
// terminates its producers after k matches. Compare B/op.
func BenchmarkCursorVsMaterialize(b *testing.B) {
	ds := benchDataset()
	st := storage.New(storage.Options{})
	st.Ingest(ds)
	const k = 10
	q := &storage.DataQuery{
		SubjType: types.EntityProcess,
		ObjType:  types.EntityFile,
		Ops:      types.NewOpSet(types.OpWrite),
	}
	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			all := st.Run(context.Background(), q)
			if len(all) < k {
				b.Fatalf("only %d matches", len(all))
			}
			_ = all[:k]
		}
	})
	b.Run("cursor", func(b *testing.B) {
		b.ReportAllocs()
		lq := *q
		lq.Limit = k
		for i := 0; i < b.N; i++ {
			cur := st.Scan(context.Background(), &lq)
			got := storage.Drain(cur)
			cur.Close()
			if len(got) != k {
				b.Fatalf("cursor returned %d matches, want %d", len(got), k)
			}
		}
	})
}

// BenchmarkHotScanLike measures the hot columnar shadow on the workload it
// was built for: a LIKE-dominated scan whose candidate set is too broad for
// the posting lists, forcing a full range walk over in-memory partitions.
// "columnar" answers through the batch kernel and per-dictionary verdict
// bitmaps; "scalar" is the same scan with shadows disabled, paying two map
// lookups and an interface call per row. Compare ns/op.
func BenchmarkHotScanLike(b *testing.B) {
	ds := benchDataset()
	q := &storage.DataQuery{
		SubjType: types.EntityProcess,
		SubjPred: pred.NewCond(types.AttrExeName, pred.CmpEq, "%e%"),
		ObjType:  types.EntityFile,
		Ops:      types.NewOpSet(types.OpRead, types.OpWrite),
		// Selective volume predicate: most rows are filtered, so the
		// benchmark measures the filter machinery rather than match
		// delivery.
		EvtPred: pred.NewCond(types.EvtAttrAmount, pred.CmpGe, "60000"),
	}
	for _, cfg := range []struct {
		name string
		opts storage.Options
	}{
		{"columnar", storage.Options{}},
		{"scalar", storage.Options{DisableHotColumnar: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			st := storage.New(cfg.opts)
			st.Ingest(ds)
			// Stream and count instead of materializing: the measured work
			// is the scan itself, not allocation of a giant result slice.
			count := func() int {
				qc := *q
				cur := st.Scan(context.Background(), &qc)
				defer cur.Close()
				total := 0
				batch := make([]storage.Match, storage.ScanBatchSize)
				for {
					n := cur.Next(batch)
					if n == 0 {
						return total
					}
					total += n
				}
			}
			// Warm once so shadow build cost is not billed to iteration 0,
			// and sanity-check the scan finds work.
			if count() == 0 {
				b.Fatal("LIKE scan matched nothing")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = count()
			}
			b.StopTimer()
			ss := st.ScanStats()
			if cfg.name == "columnar" && ss.HotBatches == 0 {
				b.Fatal("columnar run never used the batch path")
			}
			if cfg.name == "scalar" && ss.HotBatches != 0 {
				b.Fatal("scalar run used the batch path")
			}
		})
	}
}

// BenchmarkTraceOverhead pins the cost of the scan-path trace hook on the
// hot LIKE workload from BenchmarkHotScanLike. "bare" ablates the hook
// entirely (Options.DisableScanSpans — no span lookup, no counter fold);
// "disabled" is the production default with no trace on the context, i.e.
// one context lookup per scan and nil-safe no-op span calls; "enabled"
// carries a live span so the block counters fold into it on cursor close.
// CI runs this with -count and gates disabled ≤ 1.02× bare via benchregress
// -ratio: instrumentation nobody turned on must stay free on the hot path.
func BenchmarkTraceOverhead(b *testing.B) {
	ds := benchDataset()
	q := &storage.DataQuery{
		SubjType: types.EntityProcess,
		SubjPred: pred.NewCond(types.AttrExeName, pred.CmpEq, "%e%"),
		ObjType:  types.EntityFile,
		Ops:      types.NewOpSet(types.OpRead, types.OpWrite),
		EvtPred:  pred.NewCond(types.EvtAttrAmount, pred.CmpGe, "60000"),
	}
	for _, cfg := range []struct {
		name string
		opts storage.Options
		ctx  func() context.Context
	}{
		{"bare", storage.Options{DisableScanSpans: true}, context.Background},
		{"disabled", storage.Options{}, context.Background},
		{"enabled", storage.Options{}, func() context.Context {
			tr := obs.NewTrace("")
			return obs.WithSpan(obs.WithTrace(context.Background(), tr), tr.Span("bench"))
		}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			st := storage.New(cfg.opts)
			st.Ingest(ds)
			ctx := cfg.ctx()
			count := func() int {
				qc := *q
				cur := st.Scan(ctx, &qc)
				defer cur.Close()
				total := 0
				batch := make([]storage.Match, storage.ScanBatchSize)
				for {
					n := cur.Next(batch)
					if n == 0 {
						return total
					}
					total += n
				}
			}
			if count() == 0 {
				b.Fatal("LIKE scan matched nothing")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = count()
			}
		})
	}
}

// BenchmarkConcurrentIngestQuery measures query latency while an ingester
// continuously appends batches — the workload the snapshot model exists
// for. Before the refactor every Ingest held the store's write lock against
// every query scan; now queries pin a snapshot and proceed while ingestion
// mutates copy-on-write underneath.
func BenchmarkConcurrentIngestQuery(b *testing.B) {
	ds := benchDataset()
	st := storage.New(storage.Options{})
	st.Ingest(ds)
	e := engine.New(st, engine.Options{})
	pq, err := e.Prepare(`
		agentid = 2
		proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
		return distinct p1, p2`)
	if err != nil {
		b.Fatal(err)
	}

	stop := make(chan struct{})
	var ingWG sync.WaitGroup
	ingWG.Add(1)
	go func() {
		defer ingWG.Done()
		// Recycle slices of the generated events as fresh batches.
		const batch = 512
		off := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			end := off + batch
			if end > len(ds.Events) {
				off, end = 0, batch
			}
			evs := make([]types.Event, batch)
			copy(evs, ds.Events[off:end])
			st.Ingest(types.NewDataset(nil, evs))
			off = end
		}
	}()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := st.Snapshot()
		if _, err := pq.ExecuteOn(context.Background(), snap); err != nil {
			b.Fatal(err)
		}
		snap.Close()
	}
	b.StopTimer()
	close(stop)
	ingWG.Wait()
}

// BenchmarkEndToEndScaling reports AIQL vs PostgreSQL on the complete c5
// query as a pair, making the headline speedup visible in benchmark output.
func BenchmarkEndToEndScaling(b *testing.B) {
	eng := benchEngines()
	var q queries.Query
	for _, c := range queries.CaseStudy() {
		if c.ID == "c5-7" {
			q = c
		}
	}
	for _, sys := range []string{"aiql", "postgres"} {
		b.Run(sys, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runCorpus(b, eng[sys], []queries.Query{q})
			}
		})
	}
}

var (
	clusterBenchOnce sync.Once
	clusterBenchEng  *engine.Engine
	clusterBenchErr  error
)

// benchClusterEngine boots a 3-worker httptest cluster over the bench
// dataset, scattered by (agent, day), behind one coordinator engine.
func benchClusterEngine() (*engine.Engine, error) {
	clusterBenchOnce.Do(func() {
		ds := benchDataset()
		urls := make([]string, 3)
		for i := range urls {
			st := storage.New(storage.Options{})
			srv := server.New(st, engine.New(st, engine.Options{}), server.Options{})
			srv.SetShard(i)
			urls[i] = httptest.NewServer(srv.Handler()).URL
		}
		runner, err := bench.Distributed(urls)
		if err != nil {
			clusterBenchErr = err
			return
		}
		if err := bench.DistributedIngest(context.Background(), runner, ds); err != nil {
			clusterBenchErr = err
			return
		}
		clusterBenchEng = runner.Engine
	})
	return clusterBenchEng, clusterBenchErr
}

// BenchmarkClusterVsSingleNode prices the real multi-process topology:
// identical engine and behaviour corpus, one run against the local store
// and one scattered over HTTP to 3 worker shards and gathered back through
// remote cursors. The delta is the wire cost (serialization, fan-out, and
// decoding each worker's JSON-lines answer with the /ingest decoder) that
// docs/CLUSTER.md tells operators to budget for.
func BenchmarkClusterVsSingleNode(b *testing.B) {
	single := benchEngines()["aiql"]
	clusterEng, err := benchClusterEngine()
	if err != nil {
		b.Fatal(err)
	}
	bq := queries.Behaviors()
	b.Run("single-node", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runCorpus(b, single, bq)
		}
	})
	b.Run("cluster-3-workers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runCorpus(b, clusterEng, bq)
		}
	})
}

// BenchmarkIngestWALVsMemory prices durability: the same batched ingest
// loop into (a) the plain in-memory store, (b) the persistent store under
// group commit (-wal-sync interval, syncs deferred), and (c) the
// persistent store with an fsync per batch (-wal-sync batch). The spread
// between (a) and (b) is the WAL's encode+write overhead; between (b) and
// (c), the price of per-batch fsync durability.
func BenchmarkIngestWALVsMemory(b *testing.B) {
	ds := benchDataset()
	const batches = 16
	b.Run("memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bench.IngestMemory(ds, batches)
		}
		reportEventsPerSec(b, len(ds.Events))
	})
	b.Run("wal-group-commit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			b.StartTimer()
			if err := bench.IngestDurable(dir, ds, false, batches); err != nil {
				b.Fatal(err)
			}
		}
		reportEventsPerSec(b, len(ds.Events))
	})
	b.Run("wal-fsync-per-batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			b.StartTimer()
			if err := bench.IngestDurable(dir, ds, true, batches); err != nil {
				b.Fatal(err)
			}
		}
		reportEventsPerSec(b, len(ds.Events))
	})
}
