package engine

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"aiql/internal/ast"
	"aiql/internal/obs"
	"aiql/internal/parser"
	"aiql/internal/pred"
	"aiql/internal/storage"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// Backend executes synthesized data queries, streaming matches through a
// cursor so the engine decides how much to materialize. storage.Store and
// storage.Snapshot, the MPP cluster and the baseline stores all satisfy it.
// Scan must honour ctx: cancellation stops its producers promptly.
type Backend interface {
	Scan(ctx context.Context, q *storage.DataQuery) storage.Cursor
}

// Estimator is the optional Backend extension behind Options.StatsScoring:
// a cardinality estimate for a data query, answered from index statistics
// without scanning (paper Sec. 7's statistical pruning model).
type Estimator interface {
	Estimate(q *storage.DataQuery) int
}

// DaySplitting is the optional Backend extension backends use to veto the
// engine's per-day splitting of multi-day data queries. Local backends
// profit from the split (each day's sub-scan prunes partitions and runs in
// parallel), but a backend whose Scan carries a fixed per-call cost — the
// networked cluster coordinator pays one HTTP fan-out per Scan — returns
// false to receive the whole window in one call and partition it itself.
type DaySplitting interface {
	// SplitDays reports whether the engine should split multi-day windows
	// into per-day sub-scans before calling Scan.
	SplitDays() bool
}

// Strategy selects the data-query scheduler (paper Sec. 5.2).
type Strategy uint8

const (
	// StrategyRelationship is Algorithm 1: pruning-score ordering with
	// constrained execution of later data queries.
	StrategyRelationship Strategy = iota
	// StrategyFetchFilter executes every data query independently, then
	// filters tuples by the relationships (the AIQL FF baseline).
	StrategyFetchFilter
	// StrategyBigJoin emulates a semantics-agnostic RDBMS: per-row
	// predicate evaluation without entity pre-resolution, joined in
	// declaration order with late relationship filtering.
	StrategyBigJoin
)

func (s Strategy) String() string {
	switch s {
	case StrategyRelationship:
		return "relationship"
	case StrategyFetchFilter:
		return "fetch-and-filter"
	case StrategyBigJoin:
		return "big-join"
	default:
		return "unknown"
	}
}

// Options tune the engine; the zero value is the paper's full AIQL
// configuration.
type Options struct {
	Strategy Strategy
	// MaxTuples bounds any intermediate tuple set (default 2,000,000).
	MaxTuples int
	// MaxPairs bounds the total number of join pairs examined
	// (default 500,000,000) — the stand-in for the paper's 1h timeout.
	MaxPairs int64
	// PushdownLimit caps how many distinct values constrained execution
	// pushes into a data query (default 65536).
	PushdownLimit int
	// NoScoreSort disables the pruning-score ordering of relationships
	// (ablation; relationships are processed in declaration order).
	NoScoreSort bool
	// NoPushdown disables constrained execution (ablation).
	NoPushdown bool
	// StatsScoring ranks event patterns by index-derived cardinality
	// estimates instead of constraint counts (paper Sec. 7 future work).
	// Requires a Backend that implements Estimator; silently falls back to
	// constraint counts otherwise.
	StatsScoring bool
	// SplitDays executes multi-day data queries as parallel per-day
	// sub-queries (the paper's time window partition optimization).
	// Disabled only for ablation benchmarks.
	DisableSplitDays bool
	// NoHashJoin forces nested-loop joins, emulating query layers without
	// efficient join support (the paper's Neo4j observation).
	NoHashJoin bool
}

func (o Options) withDefaults() Options {
	if o.MaxTuples == 0 {
		o.MaxTuples = 2_000_000
	}
	if o.MaxPairs == 0 {
		o.MaxPairs = 500_000_000
	}
	if o.PushdownLimit == 0 {
		o.PushdownLimit = 65536
	}
	return o
}

// Engine executes compiled plans against a backend.
type Engine struct {
	backend Backend
	opts    Options
}

// New creates an engine.
func New(b Backend, opts Options) *Engine {
	return &Engine{backend: b, opts: opts.withDefaults()}
}

// Backend returns the backend the engine executes against — callers that
// were handed only the engine (the bench harness, the query service) use
// it to reach backend-specific operations like the cluster coordinator's
// scatter ingest.
func (e *Engine) Backend() Backend { return e.backend }

// Result is the tabular output of a query.
type Result struct {
	Columns []string
	Rows    [][]string
	// Diagnostics
	DataQueries int // number of data queries issued
	TuplesMax   int // largest intermediate tuple set
}

// Query parses, compiles and executes AIQL source without a deadline — the
// convenience form for CLIs, tests and examples.
func (e *Engine) Query(src string) (*Result, error) {
	//aiql:ignore ctxflow -- Query is the deliberately context-free public root; callers with a deadline use QueryContext
	return e.QueryContext(context.Background(), src)
}

// QueryContext parses, compiles and executes AIQL source. Canceling ctx
// aborts the execution promptly: in-flight storage scans stop producing and
// join loops bail between batches.
func (e *Engine) QueryContext(ctx context.Context, src string) (*Result, error) {
	q, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Execute(ctx, q)
}

// Execute compiles and runs a parsed query under ctx.
func (e *Engine) Execute(ctx context.Context, q *ast.Query) (*Result, error) {
	plan, err := Compile(q)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, plan)
}

// Run executes a compiled plan under ctx against the engine's backend.
func (e *Engine) Run(ctx context.Context, plan *Plan) (*Result, error) {
	return e.runOn(ctx, plan, e.backend)
}

// runOn executes a plan against an explicit backend — how a PreparedQuery
// is replayed against a per-request storage snapshot.
func (e *Engine) runOn(ctx context.Context, plan *Plan, b Backend) (*Result, error) {
	if ctx == nil {
		//aiql:ignore ctxflow -- nil-ctx backstop for direct Run callers, not a new context root
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// When the request carries a trace, hang this execution's spans off it:
	// under the caller's span when one is set (the server's execute stage),
	// at the trace root otherwise. A nil trace makes every span nil and every
	// span method a no-op, so untraced queries pay one context lookup here
	// and nothing per stage.
	var execSpan *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		execSpan = parent.Child("execute")
	} else {
		execSpan = obs.FromContext(ctx).Span("execute")
	}
	execSpan.Set("strategy", e.opts.Strategy.String())
	defer execSpan.End()
	// Pin one snapshot for the whole execution when running over a mutable
	// store, so every data query of a multi-pattern plan sees the same
	// generation — otherwise an ingest landing mid-execution could join
	// pattern results from store states that never coexisted. (Callers that
	// pass a Snapshot, like aiqld, pinned already; the MPP cluster snapshots
	// per segment scan, a consistency gap sharding will have to close.)
	if st, ok := b.(*storage.Store); ok {
		pin := execSpan.Child("snapshot-pin")
		snap := st.Snapshot()
		pin.End()
		defer snap.Close()
		b = snap
	}
	exec := &execution{
		eng:     e,
		backend: b,
		plan:    plan,
		ctx:     ctx,
		span:    execSpan,
		bud:     &budget{maxTuples: e.opts.MaxTuples, maxPairs: e.opts.MaxPairs, noHash: e.opts.NoHashJoin, ctx: ctx},
	}
	if plan.Slide != nil {
		return e.runAnomaly(exec)
	}
	exec.limit = planScanLimit(plan)
	ts, err := exec.run()
	if err != nil {
		return nil, err
	}
	res, err := project(plan, ts)
	if err != nil {
		return nil, err
	}
	res.DataQueries = exec.queries
	res.TuplesMax = exec.tuplesMax
	return res, nil
}

// planScanLimit returns the row limit that can be pushed all the way into
// the storage scan: only a top-k over a single pattern with no joins, no
// aggregation, no distinct/count and no sort keys consumes exactly its
// first Top matches, so only then may the scan terminate early instead of
// the projection post-filtering.
func planScanLimit(p *Plan) int {
	if p.Top <= 0 || p.Slide != nil || len(p.Patterns) != 1 || len(p.Joins) > 0 {
		return 0
	}
	if p.HasAggregation() || len(p.GroupBy) > 0 || p.Return.Distinct || p.Return.Count || len(p.SortBy) > 0 {
		return 0
	}
	return p.Top
}

// execution carries per-run state.
type execution struct {
	eng       *Engine
	backend   Backend
	plan      *Plan
	ctx       context.Context
	span      *obs.Span // the run's trace span; nil (no-op) when untraced
	bud       *budget
	limit     int // storage-level row limit (planScanLimit), 0 if none
	queries   int
	tuplesMax int
	estimates []int // lazily filled pattern cardinality estimates
}

// checkCtx is the engine's cancellation point, called between data queries
// and between cursor batches.
func (x *execution) checkCtx() error {
	return x.ctx.Err()
}

// score returns the pruning score of a pattern: with StatsScoring and an
// estimating backend, the negated cardinality estimate (fewer expected
// rows = more pruning power); otherwise the compile-time constraint count.
func (x *execution) score(idx int) int {
	est, ok := x.backend.(Estimator)
	if !x.eng.opts.StatsScoring || !ok {
		return x.plan.Patterns[idx].Score
	}
	if x.estimates == nil {
		x.estimates = make([]int, len(x.plan.Patterns))
		for i := range x.estimates {
			x.estimates[i] = -1
		}
	}
	if x.estimates[idx] < 0 {
		pp := x.plan.Patterns[idx]
		x.estimates[idx] = est.Estimate(&storage.DataQuery{
			Agents:   pp.Agents,
			Window:   pp.Window,
			SubjType: pp.Subj.Type,
			ObjType:  pp.Obj.Type,
			SubjPred: pp.Subj.Pred,
			ObjPred:  pp.Obj.Pred,
			Ops:      pp.Ops,
			EvtPred:  pp.EvtPred,
		})
	}
	return -x.estimates[idx]
}

// patternConstraint is what constrained execution pushes into a later data
// query: entity-id allow-sets and/or extra attribute predicates, plus a
// narrowed time window derived from temporal relationships.
type patternConstraint struct {
	subjAllowed map[types.EntityID]struct{}
	objAllowed  map[types.EntityID]struct{}
	subjExtra   pred.Pred
	objExtra    pred.Pred
	window      *timeutil.Window
}

// buildQuery synthesizes the data query for one pattern, folding in the
// scheduler's pushdown constraint and the plan-level scan limit.
func (x *execution) buildQuery(idx int, pc *patternConstraint) *storage.DataQuery {
	pp := x.plan.Patterns[idx]
	q := &storage.DataQuery{
		Agents:    pp.Agents,
		Window:    pp.Window,
		SubjType:  pp.Subj.Type,
		ObjType:   pp.Obj.Type,
		SubjPred:  pp.Subj.Pred,
		ObjPred:   pp.Obj.Pred,
		Ops:       pp.Ops,
		EvtPred:   pp.EvtPred,
		Limit:     x.limit,
		ForceScan: x.eng.opts.Strategy == StrategyBigJoin,
	}
	if pc != nil {
		q.SubjAllowed = pc.subjAllowed
		q.ObjAllowed = pc.objAllowed
		if pc.subjExtra != nil {
			q.SubjPred = pred.AndOf(q.SubjPred, pc.subjExtra)
		}
		if pc.objExtra != nil {
			q.ObjPred = pred.AndOf(q.ObjPred, pc.objExtra)
		}
		if pc.window != nil {
			q.Window = q.Window.Intersect(*pc.window)
		}
	}
	return q
}

// scanPattern opens a cursor over one pattern's data query. The caller owns
// the cursor (Close on early exit; Err after exhaustion). Under a trace the
// scan gets its own span: the storage layer folds block counters into it via
// the context, and the span ends when the cursor closes, so its duration
// covers the drain, not just the open.
func (x *execution) scanPattern(idx int, pc *patternConstraint) storage.Cursor {
	x.queries++
	ctx := x.ctx
	span := x.span.Child("scan")
	if span != nil {
		span.Set("pattern", strconv.Itoa(idx))
		if pc != nil {
			span.Set("constrained", "true")
		}
		ctx = obs.WithSpan(ctx, span)
	}
	cur := x.scanDataQuery(ctx, x.buildQuery(idx, pc))
	if span != nil {
		cur = &spanCursor{inner: cur, span: span}
	}
	return cur
}

// spanCursor ends a scan span when its cursor closes, tagging the rows
// streamed. Cursors are single-consumer, so the plain counter is safe.
type spanCursor struct {
	inner storage.Cursor
	span  *obs.Span
	rows  int64
	done  bool
}

func (c *spanCursor) Next(batch []storage.Match) int {
	n := c.inner.Next(batch)
	c.rows += int64(n)
	return n
}

func (c *spanCursor) Err() error { return c.inner.Err() }

func (c *spanCursor) Close() {
	c.inner.Close()
	if c.done {
		return
	}
	c.done = true
	c.span.Add("rows", c.rows)
	if err := c.inner.Err(); err != nil {
		c.span.Set("error", err.Error())
	}
	c.span.End()
}

// runPattern materializes one pattern's full match set — used where the
// scheduler genuinely needs all of it (constraint derivation, base sets of
// the materializing baselines, per-row Apply expansion).
func (x *execution) runPattern(idx int, pc *patternConstraint) ([]storage.Match, error) {
	cur := x.scanPattern(idx, pc)
	defer cur.Close()
	out := storage.Drain(cur)
	if err := cur.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// maxSplitDays bounds the per-day splitting of one data query. Temporal
// pushdown synthesizes half-unbounded windows (e.g. [minT, 1<<62) for an
// unbounded "before"); enumerating their days would effectively never
// terminate, and beyond a year of sub-scans the split adds scheduling
// overhead without improving on the storage layer's own partition pruning.
const maxSplitDays = 366

// scanDataQuery opens one data query cursor, splitting multi-day windows
// into per-day sub-scans when enabled (paper Sec. 5.2, "Time Window
// Partition"). Every sub-scan's producers start immediately, so the days
// are searched in parallel while the consumer drains them in order.
func (x *execution) scanDataQuery(ctx context.Context, q *storage.DataQuery) storage.Cursor {
	if ds, ok := x.backend.(DaySplitting); ok && !ds.SplitDays() {
		return x.backend.Scan(ctx, q)
	}
	if x.eng.opts.DisableSplitDays || q.Window.Unbounded() ||
		q.Window.Duration() > maxSplitDays*timeutil.DayMillis {
		return x.backend.Scan(ctx, q)
	}
	days := timeutil.SplitByDay(q.Window)
	if len(days) <= 1 {
		return x.backend.Scan(ctx, q)
	}
	cs := make([]storage.Cursor, len(days))
	for i := range days {
		sub := *q
		sub.Window = days[i]
		cs[i] = x.backend.Scan(ctx, &sub)
	}
	return storage.NewMultiCursor(q.Limit, cs...)
}

// run dispatches to the configured scheduler and guarantees the returned
// tuple set covers every pattern.
func (x *execution) run() (*tupleSet, error) {
	var (
		ts  *tupleSet
		err error
	)
	switch x.eng.opts.Strategy {
	case StrategyRelationship:
		ts, err = x.relationshipSchedule()
	case StrategyFetchFilter:
		ts, err = x.fetchAndFilter()
	case StrategyBigJoin:
		ts, err = x.bigJoin()
	default:
		return nil, fmt.Errorf("aiql: unknown strategy %v", x.eng.opts.Strategy)
	}
	if err != nil {
		return nil, err
	}
	if len(ts.cols) != len(x.plan.Patterns) {
		return nil, fmt.Errorf("aiql: internal error: schedule covered %d of %d patterns", len(ts.cols), len(x.plan.Patterns))
	}
	return ts, nil
}

func (x *execution) note(ts *tupleSet) *tupleSet {
	if len(ts.rows) > x.tuplesMax {
		x.tuplesMax = len(ts.rows)
	}
	return ts
}

// constraintFromMatches derives the pushdown constraint for the pattern on
// the far side of join j, given n concrete matches for the near (known)
// side accessed through get.
func (x *execution) constraintFromMatches(j *Join, knownPattern int, n int, get func(i int) *storage.Match) *patternConstraint {
	if x.eng.opts.NoPushdown {
		return nil
	}
	pc := &patternConstraint{}
	known := j.A
	knownSide, targetSide := j.ASide, j.BSide
	knownAttr, targetAttr := j.AAttr, j.BAttr
	if knownPattern == j.B {
		known = j.B
		knownSide, targetSide = j.BSide, j.ASide
		knownAttr, targetAttr = j.BAttr, j.AAttr
	}
	switch j.Kind {
	case JoinAttr:
		if j.Op != pred.CmpEq {
			return nil
		}
		vals := make(map[string]struct{})
		for i := 0; i < n; i++ {
			m := get(i)
			if v, ok := sideValue(m, knownSide, knownAttr); ok {
				vals[v] = struct{}{}
				if len(vals) > x.eng.opts.PushdownLimit {
					return nil // too many distinct values to push
				}
			}
		}
		if targetAttr == types.AttrID {
			ids := make(map[types.EntityID]struct{}, len(vals))
			for v := range vals {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return nil
				}
				ids[types.EntityID(n)] = struct{}{}
			}
			if targetSide == SideSubject {
				pc.subjAllowed = ids
			} else {
				pc.objAllowed = ids
			}
			return pc
		}
		list := make([]string, 0, len(vals))
		for v := range vals {
			list = append(list, v)
		}
		sort.Strings(list)
		c := pred.NewCond(targetAttr, pred.CmpIn, "", list...)
		if targetSide == SideSubject {
			pc.subjExtra = c
		} else {
			pc.objExtra = c
		}
		return pc
	case JoinTemporal:
		// Narrow the target's time window from the known side's extremes.
		var minT, maxT int64
		for i := 0; i < n; i++ {
			t := get(i).Event.Start
			if i == 0 || t < minT {
				minT = t
			}
			if i == 0 || t > maxT {
				maxT = t
			}
		}
		if n == 0 {
			// No known events: the join can never be satisfied; an empty
			// window makes the target query trivially empty.
			w := timeutil.EmptyWindow()
			pc.window = &w
			return pc
		}
		if j.TempKind != "before" {
			return nil
		}
		var w timeutil.Window
		if known == j.A {
			// target is B: tB >= minA (+lo), tB <= maxA + hi if bounded.
			w = timeutil.Window{From: minT + j.LoMs}
			if j.HiMs > 0 {
				w.To = maxT + j.HiMs + 1
			} else {
				w.To = timeutil.MaxMillis
			}
		} else {
			// target is A: tA <= maxB, tA >= minB - hi if bounded. The
			// unbounded low end is MinMillis, not 0 or 1: pre-epoch events
			// carry negative timestamps and a positive sentinel would
			// silently exclude them from the join.
			w = timeutil.Window{To: maxT + 1}
			if j.HiMs > 0 {
				w.From = minT - j.HiMs
			} else {
				w.From = timeutil.MinMillis
			}
		}
		if w == (timeutil.Window{}) {
			// Pre-epoch extremes can place an intended-empty range exactly
			// at the origin, where the zero value means "unbounded" —
			// which would silently discard the pushdown constraint.
			w = timeutil.EmptyWindow()
		}
		pc.window = &w
		return pc
	}
	return nil
}
