package storage

import (
	"context"
	"sort"

	"aiql/internal/pred"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// Cold partitions: a partition whose sealed history lives in mmap'ed
// columnar segments instead of decoded []Event arrays. A coldRun is
// one segment partition; a partition's cold prefix is an ordered list of
// runs that are strictly older than every hot (in-memory) event in the
// partition:
//
//	run[0] < run[1] < … < run[k] < hot events        (by (Start, Seq))
//
// The invariant is maintained by construction — runs install only onto
// empty or colder partitions, and any arrival that would violate it (a hot
// append at or before the cold maximum, an overlapping run, a segment load
// racing WAL replay) triggers a thaw: the cold rows decode into the normal
// hot representation and the partition continues as a plain mutable one.
// Scans therefore stream the cold runs first and the hot events after, and
// temporal order falls out for free.
//
// Cold rows stay columnar until a query proves it needs them: zone maps
// prune blocks by time window, operation set, and dictionary id range; the
// surviving blocks decode into reusable column scratch and run through the
// vectorized predicate kernel; only actual matches materialize Events.

// coldRun is one sealed segment partition serving as part of a
// partition's cold prefix.
type coldRun struct {
	sf *segmentFile
	pi *segPart
}

func (r *coldRun) meta() (*segMeta, error) { return r.sf.loadMeta(r.pi) }

// decodeAll fully decodes a run into the hot representation: events in
// order plus posting lists, ready for installPartition or a thaw merge.
func (r *coldRun) decodeAll() ([]types.Event, map[types.EntityID][]int32, map[types.EntityID][]int32, error) {
	m, err := r.meta()
	if err != nil {
		return nil, nil, nil, err
	}
	events := make([]types.Event, 0, r.pi.nEvents)
	var cols blockCols
	for b := range m.zones {
		if err := r.sf.decodeBlock(r.pi, m, b, &cols); err != nil {
			return nil, nil, nil, err
		}
		for i := 0; i < cols.n; i++ {
			var ev types.Event
			cols.event(i, m, &ev)
			events = append(events, ev)
		}
	}
	bySubject := make(map[types.EntityID][]int32, len(m.dict))
	byObject := make(map[types.EntityID][]int32, len(m.dict))
	for di, id := range m.dict {
		if ps := m.subjectPostings(di); len(ps) > 0 {
			list := make([]int32, len(ps))
			for i, p := range ps {
				list[i] = int32(p)
			}
			bySubject[id] = list
		}
		if ps := m.objectPostings(di); len(ps) > 0 {
			list := make([]int32, len(ps))
			for i, p := range ps {
				list[i] = int32(p)
			}
			byObject[id] = list
		}
	}
	return events, bySubject, byObject, nil
}

// coldPart is a partition's cold prefix: ascending, non-overlapping runs.
type coldPart struct {
	runs     []*coldRun
	n        int   // total cold rows
	maxStart int64 // max event start across runs (last run's maximum)
	// bad latches a decode failure from a thaw attempt: the partition can
	// no longer guarantee temporal order between its cold and hot halves,
	// so scans over it fail closed with this error.
	bad error
}

// installColdRun registers one sealed partition with the store. The fast
// path is a pointer hand-off — no event decoded. When the cold invariant
// cannot hold (the partition already has hot events, or the run overlaps
// the existing cold prefix), the run decodes and installs through the
// normal merge path instead.
func (s *Store) installColdRun(sf *segmentFile, pi *segPart) error {
	run := &coldRun{sf: sf, pi: pi}
	s.mu.Lock()
	p, ok := s.parts[pi.key]
	if !ok {
		p = &partition{
			key:       pi.key,
			bySubject: make(map[types.EntityID][]int32),
			byObject:  make(map[types.EntityID][]int32),
			cold: &coldPart{
				runs:     []*coldRun{run},
				n:        pi.nEvents,
				maxStart: pi.maxStart,
			},
		}
		s.parts[pi.key] = p
		s.insertPartLocked(p)
		s.eventCount += pi.nEvents
		s.mu.Unlock()
		return nil
	}
	if len(p.events) == 0 && p.cold != nil && p.cold.bad == nil && pi.minStart > p.cold.maxStart {
		// Runs arrive in firstSeq order, so a later run extending the cold
		// prefix just appends. Snapshots captured the runs slice by value;
		// the append is invisible to them (tail-append rule).
		p.cold.runs = append(p.cold.runs, run)
		p.cold.n += pi.nEvents
		p.cold.maxStart = pi.maxStart
		s.eventCount += pi.nEvents
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	// Conflict: fall back to the eager path (decode outside the lock).
	events, bySubject, byObject, err := run.decodeAll()
	if err != nil {
		return err
	}
	s.installPartition(pi.key, events, bySubject, byObject)
	return nil
}

// thawLocked decodes a partition's cold runs into the hot representation
// and merges them, after which the partition behaves as if every event had
// arrived through normal ingest. Called under s.mu when a mutation is about
// to violate the cold-before-hot invariant. On decode failure the error is
// latched: the partition's data is still safe on disk, but queries over it
// fail closed until the store reopens.
//
// aiql:locked mu
func (s *Store) thawLocked(p *partition) {
	cold := p.cold
	if cold == nil || cold.bad != nil {
		return
	}
	var all []types.Event
	for _, run := range cold.runs {
		events, _, _, err := run.decodeAll()
		if err != nil {
			cold.bad = err
			if s.coldErr == nil {
				s.coldErr = err
			}
			return
		}
		all = append(all, events...)
	}
	p.cold = nil
	p.shadow.Store(nil)
	s.cowPartLocked(p)
	for i := range all {
		ev := &all[i]
		pos := int32(len(p.events))
		if !p.dirty && pos > 0 && eventLess(ev, &p.events[pos-1]) {
			p.dirty = true
		}
		p.events = append(p.events, *ev)
		p.bySubject[ev.Subject] = append(p.bySubject[ev.Subject], pos)
		p.byObject[ev.Object] = append(p.byObject[ev.Object], pos)
	}
	// Cold rows already counted in eventCount at install; they only moved.
	s.scanStats.thaws.Add(1)
}

// ColdError reports a latched cold-decode failure (nil when healthy). The
// persistent store surfaces it on the ingest path so damage discovered
// during a thaw is not silent.
func (s *Store) ColdError() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.coldErr
}

// eventArena materializes matched cold rows in fixed-size chunks so the
// *types.Event pointers handed to consumers stay valid for the life of the
// result — and non-matching rows never materialize at all.
type eventArena struct {
	chunk []types.Event
}

func (a *eventArena) put(ev types.Event) *types.Event {
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]types.Event, 0, ScanBatchSize)
	}
	a.chunk = append(a.chunk, ev)
	return &a.chunk[len(a.chunk)-1]
}

// dictIndexSet maps a candidate entity-id set into sorted dictionary
// indexes of one run; ids absent from the dictionary drop out. Returns
// (nil, false) when the set is unbounded (nil) or too large to be worth
// mapping.
func dictIndexSet(cand map[types.EntityID]struct{}, m *segMeta) ([]uint32, bool) {
	const mapLimit = 1024
	if cand == nil || len(cand) > mapLimit {
		return nil, false
	}
	idx := make([]uint32, 0, len(cand))
	for id := range cand {
		if di := m.dictIndex(id); di >= 0 {
			idx = append(idx, uint32(di))
		}
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	return idx, true
}

// anyInRange reports whether the sorted index set intersects [lo, hi].
func anyInRange(idx []uint32, lo, hi uint32) bool {
	i := sort.Search(len(idx), func(i int) bool { return idx[i] >= lo })
	return i < len(idx) && idx[i] <= hi
}

// scanCold streams one partition's cold runs through emit in temporal
// order. Blocks are pruned by zone map, decoded into reusable column
// scratch, filtered by the vectorized kernel where the predicate allows,
// and only matching rows materialize. emit returning false stops the scan
// (not an error); the returned error is always segment corruption or a
// decode failure.
func (sn *Snapshot) scanCold(ctx context.Context, p *partView, q *DataQuery, subjCand, objCand map[types.EntityID]struct{}, emit func(Match) bool) error {
	stats := &sn.store.scanStats
	zoneMaps := !sn.opts.DisableZoneMaps
	windowed := !q.Window.Unbounded()

	usePostings, fromSubject := false, false
	if !sn.opts.DisableIndexes && !q.ForceScan {
		switch {
		case subjCand != nil && len(subjCand) <= postingThreshold &&
			(objCand == nil || len(subjCand) <= len(objCand)):
			usePostings, fromSubject = true, true
		case objCand != nil && len(objCand) <= postingThreshold:
			usePostings, fromSubject = true, false
		}
	}

	arena := &eventArena{}
	var cols blockCols
	var sel pred.Bitmap

	// Attribute zone maps: trigram bits every matching subject/object
	// entity must exhibit. Valid in candidate-set mode too — candidate
	// membership implies the predicate holds, which implies the entity
	// carries the required substrings. Zero masks never prune.
	var subjTriMask, objTriMask uint64
	if zoneMaps && !q.ForceScan {
		subjTriMask = requiredTriMask(q.SubjPred)
		objTriMask = requiredTriMask(q.ObjPred)
	}

	// countDecoded records one block decode with its compression traffic.
	countDecoded := func(z *segZone) {
		stats.blocksDecoded.Add(1)
		stats.compressedBytesRead.Add(int64(z.dataLen))
		stats.compressedBytesDecode.Add(int64(z.rawLen))
	}

	// checkRow mirrors the hot path's check() over column data; it
	// materializes the event only after every filter passed. evtDone marks
	// the event predicate as already applied by the vectorized kernel.
	checkRow := func(m *segMeta, i int, evtDone bool) (Match, bool) {
		if windowed && !q.Window.Contains(cols.starts[i]) {
			return Match{}, false
		}
		if !q.Ops.Contains(cols.ops[i]) {
			return Match{}, false
		}
		subjID, objID := m.dict[cols.subj[i]], m.dict[cols.obj[i]]
		subj, obj := sn.entities[subjID], sn.entities[objID]
		if subj == nil || obj == nil {
			return Match{}, false
		}
		if q.SubjType != types.EntityInvalid && subj.Type != q.SubjType {
			return Match{}, false
		}
		if q.ObjType != types.EntityInvalid && obj.Type != q.ObjType {
			return Match{}, false
		}
		if subjCand != nil {
			if _, ok := subjCand[subjID]; !ok {
				return Match{}, false
			}
		} else if q.SubjPred != nil && !q.SubjPred.Eval(subj) {
			return Match{}, false
		}
		if objCand != nil {
			if _, ok := objCand[objID]; !ok {
				return Match{}, false
			}
		} else if q.ObjPred != nil && !q.ObjPred.Eval(obj) {
			return Match{}, false
		}
		var ev types.Event
		cols.event(i, m, &ev)
		if q.EvtPred != nil && !evtDone && !q.EvtPred.Eval(&ev) {
			return Match{}, false
		}
		return Match{Event: arena.put(ev), Subj: subj, Obj: obj}, true
	}

	for _, run := range p.cold {
		if ctx.Err() != nil {
			return nil
		}
		if zoneMaps && windowed && (run.pi.maxStart < q.Window.From || run.pi.minStart >= q.Window.To) {
			stats.blocksConsidered.Add(int64(run.pi.nBlocks))
			stats.blocksSkipped.Add(int64(run.pi.nBlocks))
			continue
		}
		m, err := run.meta()
		if err != nil {
			return err
		}

		if usePostings {
			positions := coldPostings(m, subjCand, objCand, fromSubject)
			if len(positions) == 0 {
				continue
			}
			// Positions are ascending, so blocks decode at most once each,
			// in order.
			rowBase, nextBase, b := 0, m.zones[0].count, 0
			decoded := false
			for k, pos := range positions {
				if k&1023 == 0 && ctx.Err() != nil {
					return nil
				}
				for int(pos) >= nextBase {
					b++
					rowBase = nextBase
					nextBase += m.zones[b].count
					decoded = false
				}
				if !decoded {
					stats.blocksConsidered.Add(1)
					countDecoded(&m.zones[b])
					if err := run.sf.decodeBlock(run.pi, m, b, &cols); err != nil {
						return err
					}
					decoded = true
				}
				if match, ok := checkRow(m, int(pos)-rowBase, false); ok && !emit(match) {
					return nil
				}
			}
			continue
		}

		// Range path: zone-prune, decode, vectorize.
		subjIdx, subjIdxOK := []uint32(nil), false
		objIdx, objIdxOK := []uint32(nil), false
		if zoneMaps && !q.ForceScan {
			subjIdx, subjIdxOK = dictIndexSet(subjCand, m)
			objIdx, objIdxOK = dictIndexSet(objCand, m)
			// A candidate set with no dictionary hits matches nothing in
			// this run.
			if (subjIdxOK && len(subjIdx) == 0) || (objIdxOK && len(objIdx) == 0) {
				stats.blocksConsidered.Add(int64(run.pi.nBlocks))
				stats.blocksSkipped.Add(int64(run.pi.nBlocks))
				continue
			}
		}
		for b := range m.zones {
			if ctx.Err() != nil {
				return nil
			}
			z := &m.zones[b]
			stats.blocksConsidered.Add(1)
			if zoneMaps {
				if windowed && (z.maxStart < q.Window.From || z.minStart >= q.Window.To) {
					stats.blocksSkipped.Add(1)
					continue
				}
				if z.ops.Intersect(q.Ops).Empty() {
					stats.blocksSkipped.Add(1)
					continue
				}
				if (subjIdxOK && !anyInRange(subjIdx, z.minSubj, z.maxSubj)) ||
					(objIdxOK && !anyInRange(objIdx, z.minObj, z.maxObj)) {
					stats.blocksSkipped.Add(1)
					continue
				}
				if (subjTriMask != 0 && z.subjTri&subjTriMask != subjTriMask) ||
					(objTriMask != 0 && z.objTri&objTriMask != objTriMask) {
					stats.blocksSkipped.Add(1)
					stats.attrZoneSkips.Add(1)
					continue
				}
			}
			countDecoded(z)
			if err := run.sf.decodeBlock(run.pi, m, b, &cols); err != nil {
				return err
			}

			evtVec := false
			if q.EvtPred != nil && !q.ForceScan {
				if cap(sel) == 0 {
					sel = pred.NewBitmap(segBlockRows)
				}
				evtVec = pred.BatchEval(q.EvtPred, &cols, sel)
			}
			// Starts are sorted within a block: clip the row range to the
			// window once instead of testing every row.
			rlo, rhi := 0, cols.n
			if windowed {
				rlo = sort.Search(cols.n, func(i int) bool { return cols.starts[i] >= q.Window.From })
				rhi = sort.Search(cols.n, func(i int) bool { return cols.starts[i] >= q.Window.To })
			}
			for i := rlo; i < rhi; i++ {
				if evtVec && !sel.Get(i) {
					continue
				}
				if match, ok := checkRow(m, i, evtVec); ok && !emit(match) {
					return nil
				}
			}
		}
	}
	return nil
}

// coldPostings gathers candidate positions from a run's posting lists,
// merged ascending.
func coldPostings(m *segMeta, subjCand, objCand map[types.EntityID]struct{}, fromSubject bool) []uint32 {
	cand := subjCand
	if !fromSubject {
		cand = objCand
	}
	var positions []uint32
	for id := range cand {
		di := m.dictIndex(id)
		if di < 0 {
			continue
		}
		if fromSubject {
			positions = append(positions, m.subjectPostings(di)...)
		} else {
			positions = append(positions, m.objectPostings(di)...)
		}
	}
	sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
	return positions
}

// coldEstimate bounds how many cold rows of a partition a window can touch,
// using only directory information (no meta decode): a run overlapping the
// window contributes its full row count.
func coldEstimate(p *partView, w timeutil.Window) int {
	total := 0
	for _, run := range p.cold {
		if !w.Unbounded() && (run.pi.maxStart < w.From || run.pi.minStart >= w.To) {
			continue
		}
		total += run.pi.nEvents
	}
	return total
}
