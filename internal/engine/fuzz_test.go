package engine_test

import (
	"math/rand"
	"sort"
	"testing"

	"aiql/internal/engine"
	"aiql/internal/queries"
	"aiql/internal/storage"
)

// TestSchedulerEquivalenceFuzz generates random multievent queries over the
// scenario dataset and checks that every scheduler — relationship-based
// (with and without score sorting, pushdown, hash joins, stats scoring),
// fetch-and-filter, big-join and apply-join — returns exactly the same
// result set. This is the core soundness property of paper Sec. 5: the
// optimizations must change cost only, never answers.
func TestSchedulerEquivalenceFuzz(t *testing.T) {
	st := storage.New(storage.Options{})
	st.Ingest(testDataset())

	configs := map[string]engine.Options{
		"relationship":  {},
		"no-score-sort": {NoScoreSort: true},
		"no-pushdown":   {NoPushdown: true},
		"no-hashjoin":   {NoHashJoin: true},
		"no-splitdays":  {DisableSplitDays: true},
		"stats":         {StatsScoring: true},
		"fetch-filter":  {Strategy: engine.StrategyFetchFilter},
		"big-join":      {Strategy: engine.StrategyBigJoin},
	}
	engines := make(map[string]*engine.Engine, len(configs))
	for name, opts := range configs {
		engines[name] = engine.New(st, opts)
	}

	rng := rand.New(rand.NewSource(2024))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		src := queries.Random(rng)
		var wantKey string
		var wantRows int
		for _, name := range sortedKeys(configs) {
			res, err := engines[name].Query(src)
			if err != nil {
				t.Fatalf("trial %d [%s]: %v\nquery:\n%s", trial, name, err, src)
			}
			key := queries.Canonical(res.Rows)
			if name == "relationship" {
				wantKey, wantRows = key, len(res.Rows)
				continue
			}
			if key != wantKey {
				t.Fatalf("trial %d: %s returned %d rows, relationship returned %d\nquery:\n%s",
					trial, name, len(res.Rows), wantRows, src)
			}
		}
	}
}

func sortedKeys(m map[string]engine.Options) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	// Evaluate the reference configuration first.
	for i, k := range out {
		if k == "relationship" {
			out[0], out[i] = out[i], out[0]
		}
	}
	return out
}
