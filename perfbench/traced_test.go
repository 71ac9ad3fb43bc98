package main

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"aiql/internal/cluster"
	"aiql/internal/engine"
	"aiql/internal/gen"
	"aiql/internal/mpp"
	"aiql/internal/queries"
	"aiql/internal/server"
	"aiql/internal/storage"
)

// testQueries draws n random queries and their answers from eng.
func testQueries(t *testing.T, eng *engine.Engine, n int) []querySpec {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	var qs []querySpec
	for len(qs) < n {
		src := queries.Random(rng)
		res, err := eng.Query(src)
		if err != nil {
			continue // over budget
		}
		qs = append(qs, querySpec{src: src, want: answerOf(res)})
	}
	return qs
}

// The decorators must expose exactly the optional engine interfaces of
// what they wrap, or the engine would schedule differently when traced.
func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	st := storage.New(storage.Options{})
	snap := st.Snapshot()
	defer snap.Close()
	coord, err := cluster.New([]string{"http://127.0.0.1:1"}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		inner, wrapped engine.Backend
	}{
		{"snapshot", snap, snapBackend{snap: snap}},
		{"coordinator", coord, coordBackend{coord: coord}},
	} {
		_, innerEst := tc.inner.(engine.Estimator)
		_, wrapEst := tc.wrapped.(engine.Estimator)
		if innerEst != wrapEst {
			t.Errorf("%s: Estimator %v, wrapper %v", tc.name, innerEst, wrapEst)
		}
		innerDS, innerOK := tc.inner.(engine.DaySplitting)
		wrapDS, wrapOK := tc.wrapped.(engine.DaySplitting)
		if innerOK != wrapOK || (innerOK && innerDS.SplitDays() != wrapDS.SplitDays()) {
			t.Errorf("%s: DaySplitting not forwarded", tc.name)
		}
	}
}

// Traced and untraced execution must give the oracle's answers with the
// same DataQueries, on a store and through a replicated cluster.
func TestTracedMatchesUntraced(t *testing.T) {
	ds := gen.Scenario(gen.SmallConfig())
	ctx := context.Background()
	tr := newTracer()

	st := storage.New(storage.Options{})
	st.Ingest(ds)
	qs := testQueries(t, engine.New(st, engine.Options{}), 60)
	rs, err := replayQueries(ctx, tr, replayTarget{store: st}, qs, len(qs))
	if err != nil {
		t.Fatal(err)
	}
	if rs.queries != len(qs) || rs.mismatches != 0 || rs.dataQueryDiffers != 0 {
		t.Fatalf("store: %d queries, %d mismatches, %d DataQueries differences", rs.queries, rs.mismatches, rs.dataQueryDiffers)
	}

	var urls []string
	for i := 0; i < clusterWorkers; i++ {
		ws := storage.New(storage.Options{})
		srv := server.New(ws, engine.New(ws, engine.Options{}), server.Options{})
		srv.SetShard(i)
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		urls = append(urls, hs.URL)
	}
	opts := cluster.Options{Placement: mpp.SemanticsAware, Replicas: 2}
	plain, err := cluster.New(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Ingest(ctx, ds); err != nil {
		t.Fatal(err)
	}
	wire := &wireClock{}
	opts.Client = wire.client()
	timed, err := cluster.New(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	rs, err = replayQueries(ctx, tr, replayTarget{plain: plain, timed: timed, wire: wire}, qs, len(qs))
	if err != nil {
		t.Fatal(err)
	}
	if rs.queries != len(qs) || rs.mismatches != 0 || rs.dataQueryDiffers != 0 {
		t.Fatalf("cluster: %d queries, %d mismatches, %d DataQueries differences", rs.queries, rs.mismatches, rs.dataQueryDiffers)
	}
	if rs.wireBytes == 0 || rs.matches == 0 {
		t.Fatalf("cluster: timing client saw %d bytes for %d matches", rs.wireBytes, rs.matches)
	}
}
