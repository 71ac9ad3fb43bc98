package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"aiql/internal/engine"
	"aiql/internal/queries"
	"aiql/internal/storage"
	"aiql/internal/stream"
	"aiql/internal/trace"
	"aiql/internal/types"
)

// answer is what a served query must reproduce: the digest of its
// order-independent canonical rows, and the diagnostics the server echoes.
type answer struct {
	digest      [32]byte
	rows        int
	dataQueries int
}

func answerOf(res *engine.Result) answer {
	return answer{
		digest:      digestRows(res.Rows),
		rows:        len(res.Rows),
		dataQueries: res.DataQueries,
	}
}

func digestRows(rows [][]string) [32]byte {
	return sha256.Sum256([]byte(queries.Canonical(rows)))
}

// querySpec is one query text and its oracle answer.
type querySpec struct {
	src  string
	want answer
}

// Cost classes of the ad hoc stream, by the oracle's largest intermediate
// tuple set. Almost all random queries are cheap; the rare wide joins
// dominate time. The stream keeps a fixed number from each class (classQuota,
// the classes' shares in 32k draws over eight seeds), so every seed gets the same
// cost mix and the figures of different seeds compare.
var classBounds = []int{10, 100, 1_000, 3_000, 10_000, 20_000, 40_000, 80_000}

// classQuota is the per-class count in a seqLen-query sequence.
var classQuota = []int{11176, 116, 284, 108, 160, 60, 32, 36, 28}

func costClass(tuplesMax int) int {
	for i, b := range classBounds {
		if tuplesMax < b {
			return i
		}
	}
	return len(classBounds)
}

// oracle is the in-process reference: a storage.Store and engine.Engine
// over exactly the batches aiqld receives, decoded by the same codec.
type oracle struct {
	store   *storage.Store
	matcher *stream.Matcher
	seq     []querySpec // the ad hoc stream
	corpus  []querySpec // the paper corpus, scoped to days 1-2
	// draws counts the random queries drawn to fill the stream; rejected
	// counts those over the scaled tuple budget, which the stream leaves out.
	draws, rejected int
	// ruleSeq[k][r] is rule r's emission count after the first k live
	// batches (investigate-live only).
	ruleSeq [][]uint64

	// Span IDs of the ingest replay, per phase.
	histRead, histIngest, liveRead, liveIngest, liveMatch []int
}

// buildOracle replays the history batches into an in-process store, draws
// the ad hoc stream, answers the corpus, and for investigate-live feeds the
// live batches through a matcher holding the standing rules. tr may be nil;
// when set, every decode, apply and rule match is recorded as a span.
func buildOracle(ctx context.Context, in *inputs, withLive bool, tr *tracer) (*oracle, error) {
	o := &oracle{store: storage.New(storage.Options{})}
	o.matcher = stream.NewMatcher(o.store, stream.Options{})
	var ingestSpan int
	var matchSpans *[]int
	o.store.SetIngestObserver(func(d *types.Dataset, gen uint64) {
		id := tr.begin(ingestSpan, "stream.Matcher.OnIngest")
		o.matcher.OnIngest(d, gen)
		tr.end(id)
		if matchSpans != nil {
			*matchSpans = append(*matchSpans, id)
		}
	})
	apply := func(b batch, reads, ingests *[]int) error {
		id := tr.begin(0, "trace.Read")
		ds, err := trace.Read(bytes.NewReader(b.body))
		tr.end(id)
		if err != nil {
			return err
		}
		*reads = append(*reads, id)
		ingestSpan = tr.begin(0, "storage.Store.Ingest")
		o.store.Ingest(ds)
		tr.end(ingestSpan)
		*ingests = append(*ingests, ingestSpan)
		return nil
	}
	for _, b := range in.history {
		if err := apply(b, &o.histRead, &o.histIngest); err != nil {
			return nil, fmt.Errorf("oracle history: %w", err)
		}
	}
	if !withLive {
		if err := o.drawSequence(ctx, in); err != nil {
			return nil, err
		}
	}
	var err error
	if o.corpus, err = answerAll(ctx, engine.New(o.store, engine.Options{}), in.corpus); err != nil {
		return nil, err
	}
	if !withLive {
		return o, nil
	}
	for _, r := range in.rules {
		if _, err := o.matcher.Register(stream.RuleSpec{ID: r.ID, Query: r.Query, Pattern: r.Pattern}); err != nil {
			return nil, fmt.Errorf("oracle rule %s: %w", r.ID, err)
		}
	}
	o.ruleSeq = append(o.ruleSeq, o.ruleCounts(in))
	matchSpans = &o.liveMatch
	for _, b := range in.live {
		if err := apply(b, &o.liveRead, &o.liveIngest); err != nil {
			return nil, fmt.Errorf("oracle live: %w", err)
		}
		o.ruleSeq = append(o.ruleSeq, o.ruleCounts(in))
	}
	matchSpans = nil
	// The analyst's answers must not depend on how much of the live day
	// has been ingested: check the corpus against history plus the whole
	// live day.
	after, err := answerAll(ctx, engine.New(o.store, engine.Options{}), in.corpus)
	if err != nil {
		return nil, err
	}
	for i := range after {
		if after[i].want != o.corpus[i].want {
			return nil, fmt.Errorf("corpus query %s changes when the live day is ingested", in.corpus[i].ID)
		}
	}
	return o, nil
}

func (o *oracle) ruleCounts(in *inputs) []uint64 {
	out := make([]uint64, len(in.rules))
	for i, r := range in.rules {
		info, _ := o.matcher.Rule(r.ID)
		out[i] = info.Seq
	}
	return out
}

// drawSequence fills the ad hoc stream from the seeded queries.Random
// draws: over-budget draws are counted and skipped, the rest fill their
// cost class until its quota is met. Draws execute in parallel chunks and
// are taken in draw order, so the stream depends on the seed alone.
func (o *oracle) drawSequence(ctx context.Context, in *inputs) error {
	eng := engine.New(o.store, engine.Options{MaxTuples: in.scaledTupleBudget()})
	left := append([]int(nil), classQuota...)
	need := seqLen
	const chunk = 256
	srcs := make([]string, chunk)
	res := make([]*engine.Result, chunk)
	errs := make([]error, chunk)
	for need > 0 {
		if o.draws >= 20*seqLen {
			return fmt.Errorf("ad hoc stream: %d draws did not fill the class quotas %v", o.draws, left)
		}
		for i := range srcs {
			srcs[i] = queries.Random(in.rng)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < runtime.NumCPU(); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < chunk; i = int(next.Add(1) - 1) {
					res[i], errs[i] = eng.QueryContext(ctx, srcs[i])
				}
			}()
		}
		wg.Wait()
		for i := 0; i < chunk && need > 0; i++ {
			o.draws++
			if errors.Is(errs[i], engine.ErrTooLarge) {
				o.rejected++
				continue
			}
			if errs[i] != nil {
				return fmt.Errorf("oracle query %q: %w", srcs[i], errs[i])
			}
			c := costClass(res[i].TuplesMax)
			if left[c] == 0 {
				continue
			}
			left[c]--
			need--
			o.seq = append(o.seq, querySpec{src: srcs[i], want: answerOf(res[i])})
		}
	}
	return nil
}

func answerAll(ctx context.Context, eng *engine.Engine, qs []queries.Query) ([]querySpec, error) {
	out := make([]querySpec, len(qs))
	for i, q := range qs {
		res, err := eng.QueryContext(ctx, q.Src)
		if err != nil {
			return nil, fmt.Errorf("oracle corpus %s: %w", q.ID, err)
		}
		out[i] = querySpec{src: q.Src, want: answerOf(res)}
	}
	return out, nil
}
