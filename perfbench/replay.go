package main

import (
	"context"
	"fmt"
	"time"

	"aiql/internal/cluster"
	"aiql/internal/engine"
	"aiql/internal/parser"
	"aiql/internal/storage"
)

// replayTarget is where the in-process replay executes: a local store (the
// oracle's, holding the same data aiqld holds) or coordinators over the
// running workers — plain for the untraced path, built with the timing
// client for the traced one.
type replayTarget struct {
	store        *storage.Store
	plain, timed *cluster.Coordinator
	wire         *wireClock // the timed coordinator's client; nil for a store
}

// replayStats is the per-layer view of one traced replay.
type replayStats struct {
	queries                   int
	parseUs, prepareUs, pinUs []float64
	executeMs, selfMs, scanMs []float64
	tracedUs, untracedUs      []float64
	// layerShare is, per query, the traced layer times (prepare, pin,
	// engine self, scan) over the untraced execution time.
	layerShare                   []float64
	matches, rows                int64
	wireNanos, wireBytes         int64
	mismatches, dataQueryDiffers int
}

// replayQueries runs qs in order, each through the untraced path (the
// server's own sequence of calls: Prepare, pin, ExecuteOn) and the traced
// path (the same calls wrapped in spans, scanning through the timing
// decorator), alternating which goes first, for n queries cycling through
// qs. Both answers must equal the oracle's, with identical DataQueries.
func replayQueries(ctx context.Context, tr *tracer, t replayTarget, qs []querySpec, n int) (*replayStats, error) {
	var eng *engine.Engine
	if t.plain != nil {
		eng = engine.New(t.plain, engine.Options{})
	} else {
		eng = engine.New(t.store, engine.Options{})
	}
	st := &replayStats{}
	var traced []tracedQuery
	for i := 0; i < n; i++ {
		q := qs[i%len(qs)]
		var plain, timed *engine.Result
		var plainDur time.Duration
		var tq tracedQuery
		var wireN, wireB int64
		var err error
		for leg := 0; leg < 2; leg++ {
			if (leg+i)%2 == 0 {
				plain, plainDur, err = runPlain(ctx, eng, t, q.src)
			} else {
				tq, timed, wireN, wireB, err = runTraced(ctx, tr, eng, t, q.src)
			}
			if err != nil {
				return nil, fmt.Errorf("replay %q: %w", q.src, err)
			}
		}
		pid := tr.begin(0, "parser.Parse")
		if _, err := parser.Parse(q.src); err != nil {
			return nil, err
		}
		tr.end(pid)
		st.parseUs = append(st.parseUs, us(tr.dur(pid)))
		if answerOf(plain) != q.want || answerOf(timed) != q.want {
			st.mismatches++
		}
		if plain.DataQueries != timed.DataQueries {
			st.dataQueryDiffers++
		}
		st.untracedUs = append(st.untracedUs, us(plainDur))
		st.rows += int64(len(timed.Rows))
		st.wireNanos += wireN
		st.wireBytes += wireB
		st.matches += tq.matches
		traced = append(traced, tq)
		st.queries++
	}
	tr.index()
	scanName := "storage.Snapshot.Scan"
	if t.timed != nil {
		scanName = "cluster.Coordinator.Scan"
	}
	for i, tq := range traced {
		prep, exec, self := tr.dur(tq.prep), tr.dur(tq.exec), tr.self(tq.exec)
		var pin time.Duration
		if tq.pin != 0 {
			pin = tr.dur(tq.pin)
			st.pinUs = append(st.pinUs, us(pin))
		}
		st.tracedUs = append(st.tracedUs, us(tr.dur(tq.root)))
		st.prepareUs = append(st.prepareUs, us(prep))
		st.executeMs = append(st.executeMs, ms(exec))
		st.selfMs = append(st.selfMs, ms(self))
		st.scanMs = append(st.scanMs, ms(tr.childTotal(tq.exec, scanName)))
		// The layers of one query, against its untraced time, which was
		// measured apart from every span.
		scan := exec - self // the part of the execution inside cursor calls
		layers := prep + pin + self + scan
		st.layerShare = append(st.layerShare, float64(layers)/(st.untracedUs[i]*1e3))
	}
	return st, nil
}

// tracedQuery holds the span IDs of one traced execution.
type tracedQuery struct {
	root, prep, pin, exec int
	matches               int64
}

func runPlain(ctx context.Context, eng *engine.Engine, t replayTarget, src string) (*engine.Result, time.Duration, error) {
	start := time.Now()
	pq, err := eng.Prepare(src)
	if err != nil {
		return nil, 0, err
	}
	var res *engine.Result
	if t.plain != nil {
		res, err = pq.ExecuteOn(ctx, t.plain)
	} else {
		snap := t.store.Snapshot()
		res, err = pq.ExecuteOn(ctx, snap)
		defer snap.Close()
	}
	return res, time.Since(start), err
}

func runTraced(ctx context.Context, tr *tracer, eng *engine.Engine, t replayTarget, src string) (q tracedQuery, res *engine.Result, wireN, wireB int64, err error) {
	q.root = tr.begin(0, "query")
	q.prep = tr.begin(q.root, "engine.Prepare")
	pq, err := eng.Prepare(src)
	tr.end(q.prep)
	if err != nil {
		return q, nil, 0, 0, err
	}
	var backend engine.Backend
	clock := &scanClock{tr: tr}
	if t.timed != nil {
		q.exec = tr.begin(q.root, "engine.PreparedQuery.ExecuteOn")
		clock.parent, clock.name = q.exec, "cluster.Coordinator.Scan"
		backend = coordBackend{coord: t.timed, clock: clock}
	} else {
		q.pin = tr.begin(q.root, "storage.Store.Snapshot")
		snap := t.store.Snapshot()
		tr.end(q.pin)
		defer snap.Close()
		q.exec = tr.begin(q.root, "engine.PreparedQuery.ExecuteOn")
		clock.parent, clock.name = q.exec, "storage.Snapshot.Scan"
		backend = snapBackend{snap: snap, clock: clock}
	}
	var n0, b0 int64
	if t.wire != nil {
		n0, b0 = t.wire.nanos.Load(), t.wire.bytes.Load()
	}
	res, err = pq.ExecuteOn(ctx, backend)
	tr.end(q.exec)
	tr.end(q.root)
	q.matches = clock.matches.Load()
	if t.wire != nil {
		wireN, wireB = t.wire.nanos.Load()-n0, t.wire.bytes.Load()-b0
	}
	return q, res, wireN, wireB, err
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
