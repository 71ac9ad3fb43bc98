package storage

import (
	"context"

	"aiql/internal/pred"
	"aiql/internal/types"
)

// Hot columnar shadows: the in-memory mirror of the sealed segment layout,
// giving hot partitions the same batch-at-a-time scan path cold runs get.
//
// A hotShadow is a lazily built columnar copy of a prefix of one
// partition's event array — per-attribute int64 columns, op bytes, and
// subject/object columns holding u32 indexes into a per-partition entity
// dictionary (first-seen order, so extension never reorders). It is pinned
// to the exact backing array it was built from: shadows are built only from
// snapshot-captured arrays, which the store has marked eventsShared, so any
// re-sort copies the array rather than reordering it in place — a shadow's
// source rows can therefore never change under it, only become unreachable
// from the live partition. Staleness is detected by base-pointer identity
// (and the base pointer keeps the old array alive, so the address can never
// be recycled while a shadow still references it); sortDirtyLocked and
// thawLocked additionally drop the shadow eagerly.
//
// Shadows grow in place: extending from n to n' writes only rows [n, n'),
// which no published reader indexes (readers hold the previous struct,
// whose row count is n), so builders and scanners need no common lock —
// builders serialize on partition.shadowMu and publish via an atomic
// pointer.
//
// The payoff is scanHot: instead of per-event interface calls through
// Pred.Eval and two entity-map lookups per row, entity predicates are
// evaluated once per referenced dictionary entry (entities are immutable,
// so the verdict cannot change within a scan) into verdict bitmaps, event
// predicates run through the vectorized kernel in 1024-row batches, and the
// per-row residue is an op-set test plus two bit probes.

// hotShadowMinRows is the smallest hot row range worth shadowing: below it
// the per-event path wins on build cost alone.
const hotShadowMinRows = 256

// hotShadowChunk is the batch granularity of scanHot — one kernel
// invocation and one cancellation check per chunk, mirroring the cold
// path's block size.
const hotShadowChunk = 1024

// hotShadow is a columnar view over events[0:n] of one partition's backing
// array. All exported-to-reader state is immutable once published; slot is
// writer-owned (guarded by partition.shadowMu).
type hotShadow struct {
	base *types.Event // identity of (and liveness pin for) the source array
	n    int

	starts  []int64
	ends    []int64
	ids     []int64
	seqs    []int64
	amounts []int64
	fails   []int64
	agents  []int64
	subj    []uint32
	obj     []uint32
	ops     []types.Op

	dict []types.EntityID          // first-seen order; index = column value
	slot map[types.EntityID]uint32 // writer-owned
}

// shadowFor returns a shadow covering at least events[0:need] of the given
// snapshot-captured array, building or extending the partition's shadow as
// required. Returns nil only if events is empty.
func (p *partition) shadowFor(events []types.Event, need int) *hotShadow {
	if len(events) == 0 {
		return nil
	}
	if sh := p.shadow.Load(); sh != nil && sh.base == &events[0] && sh.n >= need {
		return sh
	}
	p.shadowMu.Lock()
	defer p.shadowMu.Unlock()
	cur := p.shadow.Load()
	if cur != nil && cur.base == &events[0] && cur.n >= need {
		return cur
	}
	var next *hotShadow
	if cur != nil && cur.base == &events[0] {
		next = cur.extend(events)
	} else {
		next = buildShadow(events)
	}
	p.shadow.Store(next)
	return next
}

// buildShadow constructs a fresh shadow over the whole captured prefix.
func buildShadow(events []types.Event) *hotShadow {
	sh := &hotShadow{
		base: &events[0],
		slot: make(map[types.EntityID]uint32),
	}
	return sh.extend(events)
}

// extend returns a shadow covering events[0:len(events)], reusing sh's
// column storage where capacity allows. Rows [sh.n, len(events)) are
// written into spare capacity that no published reader indexes; when a
// column must grow, the filled prefix is copied (concurrent readers of the
// old columns see only immutable data either way).
func (sh *hotShadow) extend(events []types.Event) *hotShadow {
	n := len(events)
	next := &hotShadow{
		base: sh.base,
		n:    n,
		dict: sh.dict,
		slot: sh.slot,
	}
	next.starts = growInt64(sh.starts, sh.n, n)
	next.ends = growInt64(sh.ends, sh.n, n)
	next.ids = growInt64(sh.ids, sh.n, n)
	next.seqs = growInt64(sh.seqs, sh.n, n)
	next.amounts = growInt64(sh.amounts, sh.n, n)
	next.fails = growInt64(sh.fails, sh.n, n)
	next.agents = growInt64(sh.agents, sh.n, n)
	next.subj = growUint32(sh.subj, sh.n, n)
	next.obj = growUint32(sh.obj, sh.n, n)
	next.ops = growOps(sh.ops, sh.n, n)
	for i := sh.n; i < n; i++ {
		ev := &events[i]
		next.starts[i] = ev.Start
		next.ends[i] = ev.End
		next.ids[i] = int64(ev.ID)
		next.seqs[i] = int64(ev.Seq)
		next.amounts[i] = ev.Amount
		next.fails[i] = int64(ev.FailCode)
		next.agents[i] = int64(ev.AgentID)
		next.subj[i] = next.slotFor(ev.Subject)
		next.obj[i] = next.slotFor(ev.Object)
		next.ops[i] = ev.Op
	}
	return next
}

func (sh *hotShadow) slotFor(id types.EntityID) uint32 {
	if s, ok := sh.slot[id]; ok {
		return s
	}
	s := uint32(len(sh.dict))
	sh.dict = append(sh.dict, id)
	sh.slot[id] = s
	return s
}

func growInt64(col []int64, filled, n int) []int64 {
	if cap(col) >= n {
		return col[:n]
	}
	grown := make([]int64, n, 2*n)
	copy(grown, col[:filled])
	return grown
}

func growUint32(col []uint32, filled, n int) []uint32 {
	if cap(col) >= n {
		return col[:n]
	}
	grown := make([]uint32, n, 2*n)
	copy(grown, col[:filled])
	return grown
}

func growOps(col []types.Op, filled, n int) []types.Op {
	if cap(col) >= n {
		return col[:n]
	}
	grown := make([]types.Op, n, 2*n)
	copy(grown, col[:filled])
	return grown
}

// shadowChunk adapts one row range of a shadow to pred.ColumnSource for the
// vectorized kernel.
type shadowChunk struct {
	sh     *hotShadow
	lo, hi int
}

// NumRows implements pred.ColumnSource.
func (c *shadowChunk) NumRows() int { return c.hi - c.lo }

// Int64Column implements pred.ColumnSource.
func (c *shadowChunk) Int64Column(attr string) ([]int64, bool) {
	switch attr {
	case types.EvtAttrAmount:
		return c.sh.amounts[c.lo:c.hi], true
	case types.EvtAttrFailCode:
		return c.sh.fails[c.lo:c.hi], true
	case types.EvtAttrSeq:
		return c.sh.seqs[c.lo:c.hi], true
	case types.EvtAttrStart:
		return c.sh.starts[c.lo:c.hi], true
	case types.EvtAttrEnd:
		return c.sh.ends[c.lo:c.hi], true
	case types.AttrAgentID:
		return c.sh.agents[c.lo:c.hi], true
	case types.AttrID:
		return c.sh.ids[c.lo:c.hi], true
	}
	return nil, false
}

// OpColumn implements pred.ColumnSource.
func (c *shadowChunk) OpColumn() ([]types.Op, bool) { return c.sh.ops[c.lo:c.hi], true }

// entityVerdicts evaluates one side's entity checks once per dictionary
// entry referenced in rows [lo, hi), mirroring scanPartition's check()
// exactly: the entity must exist, match the type filter, and pass the
// candidate-set membership test (when a candidate set exists) or the
// predicate (when it does not). ents is filled with the resolved entity for
// every referenced slot so matching rows need no map lookup.
func (sn *Snapshot) entityVerdicts(sh *hotShadow, col []uint32, lo, hi int, t types.EntityType, p pred.Pred, cand map[types.EntityID]struct{}, ents []*types.Entity) pred.Bitmap {
	nd := len(sh.dict)
	used := pred.NewBitmap(nd)
	for i := lo; i < hi; i++ {
		used.Set(int(col[i]))
	}
	verdict := pred.NewBitmap(nd)
	used.ForEach(nd, func(di int) bool {
		e := sn.entities[sh.dict[di]]
		if e == nil {
			return true
		}
		ents[di] = e
		if t != types.EntityInvalid && e.Type != t {
			return true
		}
		if cand != nil {
			if _, ok := cand[sh.dict[di]]; !ok {
				return true
			}
		} else if p != nil && !p.Eval(e) {
			return true
		}
		verdict.Set(di)
		return true
	})
	return verdict
}

// scanHot scans rows [lo, hi) of a hot partition through its columnar
// shadow: entity predicates collapse to per-dictionary verdict bitmaps,
// event predicates run through the vectorized kernel per chunk, and each
// row costs an op-set test plus two bit probes. Returns false when no
// shadow is available (caller falls back to the per-event loop); emits are
// row-identical to that loop by construction.
func (sn *Snapshot) scanHot(ctx context.Context, p *partView, q *DataQuery, subjCand, objCand map[types.EntityID]struct{}, lo, hi int, emit func(Match) bool) bool {
	sh := p.host.shadowFor(p.events, hi)
	if sh == nil {
		return false
	}
	stats := &sn.store.scanStats

	ents := make([]*types.Entity, len(sh.dict))
	subjV := sn.entityVerdicts(sh, sh.subj, lo, hi, q.SubjType, q.SubjPred, subjCand, ents)
	objV := sn.entityVerdicts(sh, sh.obj, lo, hi, q.ObjType, q.ObjPred, objCand, ents)
	stats.dictVerdictHits.Add(int64(hi - lo))

	var sel pred.Bitmap
	if q.EvtPred != nil {
		sel = pred.NewBitmap(hotShadowChunk)
	}
	for clo := lo; clo < hi; clo += hotShadowChunk {
		chi := clo + hotShadowChunk
		if chi > hi {
			chi = hi
		}
		if ctx.Err() != nil {
			return true
		}
		stats.hotBatches.Add(1)
		evtVec := false
		if q.EvtPred != nil {
			chunk := shadowChunk{sh: sh, lo: clo, hi: chi}
			// BatchEval requires out sized exactly to the chunk's rows.
			evtVec = pred.BatchEval(q.EvtPred, &chunk, sel[:(chi-clo+63)/64])
		}
		for i := clo; i < chi; i++ {
			if evtVec && !sel.Get(i-clo) {
				continue
			}
			if !q.Ops.Contains(sh.ops[i]) {
				continue
			}
			sdi, odi := sh.subj[i], sh.obj[i]
			if !subjV.Get(int(sdi)) || !objV.Get(int(odi)) {
				continue
			}
			ev := &p.events[i]
			if q.EvtPred != nil && !evtVec && !q.EvtPred.Eval(ev) {
				continue
			}
			if !emit(Match{Event: ev, Subj: ents[sdi], Obj: ents[odi]}) {
				return true
			}
		}
	}
	return true
}
