package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"

	"aiql/internal/gen"
	"aiql/internal/queries"
	"aiql/internal/trace"
	"aiql/internal/types"
)

// Dataset scale. Ten hosts is the smallest scenario gen.Scenario accepts;
// four days give three history days (0-2, the days every query targets)
// plus one live day (3) for the investigate-live ingester. At 3,000
// background events per host per day the history is ~91k events, small
// enough that three set-ups, the oracle and a measured window fit in one
// run on a 2-core machine.
const (
	scaleHosts = 10
	scaleDays  = 4
	scaleBG    = 3000
	liveDay    = scaleDays - 1

	// deploymentEvents is the event count of gen.DefaultConfig, the scale
	// aiqld's defaults are tuned for. Size-dependent limits (the engine's
	// tuple budget, the compaction threshold) are scaled by
	// historyEvents/deploymentEvents so they bite at the same relative size.
	deploymentEvents = 15 * 4 * 20000

	// historyBatchEvents is the fixed /ingest batch size of the history
	// load: 364 batches per load.
	historyBatchEvents = 250
	// liveBatchEvents is the fixed batch size of the live ingester. At one
	// batch per liveEvery the ~30k-event live day lasts 21 s.
	liveBatchEvents = 14

	// seqLen is the length of the ad hoc query sequence. The clients cycle
	// through it, but it is far more than the plan cache (256) and result
	// cache (128) hold, so with LRU eviction every request misses both. It
	// is as long as a run gets through in about two passes: the longer the
	// sequence, the less its cost mix and tail depend on the seed.
	seqLen = 12000
)

// ruleRefs names the standing rules of investigate-live: single event
// patterns of corpus queries (query ID, pattern index), registered with the
// query's day scope removed so they match the live day's background
// traffic. The set is fixed; each of them matches live-day events for
// every seed.
var ruleRefs = []struct {
	id      string
	pattern int
}{
	{"a1", 1}, {"a2", 1}, {"a4", 3}, {"a5", 2}, {"c1-1", 2},
	{"c2-6", 3}, {"d3", 1}, {"s4", 0}, {"v4", 1},
}

var dayScope = regexp.MustCompile(`\(at "[^"]*"\)`)

// ruleSpec is one standing rule as POSTed to /rules.
type ruleSpec struct {
	ID      string `json:"id"`
	Query   string `json:"query"`
	Pattern *int   `json:"pattern"`
}

// batch is one /ingest request body and the event count it carries.
type batch struct {
	body   []byte
	events int
}

// inputs is everything a run sends to aiqld, derived from the seed alone.
type inputs struct {
	historyEvents int
	liveEvents    int
	history       []batch
	live          []batch
	corpus        []queries.Query
	rules         []ruleSpec
	// rng draws the ad hoc query stream (see drawSequence).
	rng *rand.Rand
}

// makeInputs generates the seeded dataset and splits it into the history
// (days 0-2) and the live day, each as JSON-lines /ingest batches. Every
// batch carries the entities its events reference that no earlier batch
// carried.
func makeInputs(seed int64) (*inputs, error) {
	ds := gen.Scenario(gen.Config{Hosts: scaleHosts, Days: scaleDays, BackgroundPerHostDay: scaleBG, Seed: seed})
	cut := gen.DayStart(liveDay)
	split := len(ds.Events)
	for i, ev := range ds.Events {
		if ev.Start >= cut {
			split = i
			break
		}
	}
	in := &inputs{
		historyEvents: split,
		liveEvents:    len(ds.Events) - split,
		corpus:        append(queries.CaseStudy(), queries.Behaviors()...),
		rng:           rand.New(rand.NewSource(seed*7919 + 17)),
	}
	sent := make(map[types.EntityID]bool)
	var err error
	if in.history, err = toBatches(ds, ds.Events[:split], historyBatchEvents, sent); err != nil {
		return nil, err
	}
	if in.live, err = toBatches(ds, ds.Events[split:], liveBatchEvents, sent); err != nil {
		return nil, err
	}
	byID := make(map[string]string, len(in.corpus))
	for _, q := range in.corpus {
		byID[q.ID] = q.Src
	}
	for _, r := range ruleRefs {
		src, ok := byID[r.id]
		if !ok {
			return nil, fmt.Errorf("rule source %s is not in the corpus", r.id)
		}
		p := r.pattern
		in.rules = append(in.rules, ruleSpec{
			ID:      fmt.Sprintf("%s.p%d", r.id, r.pattern),
			Query:   dayScope.ReplaceAllString(src, ""),
			Pattern: &p,
		})
	}
	return in, nil
}

func toBatches(ds *types.Dataset, evs []types.Event, size int, sent map[types.EntityID]bool) ([]batch, error) {
	var out []batch
	for lo := 0; lo < len(evs); lo += size {
		hi := min(lo+size, len(evs))
		chunk := append([]types.Event(nil), evs[lo:hi]...)
		var ents []types.Entity
		for _, ev := range chunk {
			for _, id := range [2]types.EntityID{ev.Subject, ev.Object} {
				if sent[id] {
					continue
				}
				sent[id] = true
				e := ds.Entity(id)
				if e == nil {
					return nil, fmt.Errorf("event %d references unknown entity %d", ev.ID, id)
				}
				ents = append(ents, *e)
			}
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, types.NewDataset(ents, chunk)); err != nil {
			return nil, err
		}
		out = append(out, batch{body: buf.Bytes(), events: len(chunk)})
	}
	return out, nil
}

// scaledTupleBudget is the engine's default 2,000,000-tuple budget scaled
// from deployment size to this history's size.
func (in *inputs) scaledTupleBudget() int {
	return int(int64(2_000_000) * int64(in.historyEvents) / deploymentEvents)
}

// scaledCompactThreshold is aiqld's default 16 MiB compaction threshold
// scaled the same way, so the history folds into segments during set-up
// and the live day triggers compactions during the measured window.
func (in *inputs) scaledCompactThreshold() int64 {
	return int64(16<<20) * int64(in.historyEvents) / deploymentEvents
}
