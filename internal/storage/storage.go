// Package storage implements AIQL's domain-specific data store
// (paper Sec. 3.2). System monitoring data exhibits strong spatial and
// temporal properties: data from different agents is independent, and
// timestamps increase monotonically. The store therefore partitions events
// along both dimensions — one partition per (agent, UTC day) — and builds
// hash indexes on the attributes queries touch most (process exe_name, file
// name, network src/dst IP). Partition pruning by the query's spatial and
// temporal constraints plus parallel partition scans give the speedups the
// paper attributes to its storage layer.
//
// Queries never run against the mutable store directly: they acquire an
// immutable Snapshot (O(partitions), under the write lock only briefly) and
// stream matches through Cursors, so ingestion and query execution proceed
// concurrently without blocking each other.
//
// # Copy-on-write rules
//
// A snapshot captures references to the store's internal maps and event
// arrays; the mutation path keeps those captures immutable by obeying three
// rules while any snapshot is live (liveSnaps > 0):
//
//  1. Event arrays only grow at the tail. Appending past the captured
//     length is invisible to snapshot readers, which only index their own
//     prefix. Reordering a possibly-captured array (the out-of-order
//     re-sort) first copies it (partition.eventsShared).
//  2. Maps referenced by a snapshot are never written. The first posting
//     or index insertion after a snapshot replaces the map with a shallow
//     clone (partition.mapsShared / Store.metaShared); slice values inside
//     a cloned map still share backing arrays, which is safe by rule 1.
//  3. Flags are cleared once the clone is made, so a snapshot epoch pays
//     each copy at most once; with no live snapshots the flags are cleared
//     without cloning and mutation proceeds in place at full speed.
package storage

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"aiql/internal/pred"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// Options control the optimizations individual benchmarks toggle for
// ablation studies. The zero value enables everything.
type Options struct {
	// DisableIndexes forces full entity scans instead of hash-index probes.
	DisableIndexes bool
	// DisablePruning scans every partition regardless of the query's
	// spatial/temporal constraints (the partitions still exist; only the
	// pruning is turned off).
	DisablePruning bool
	// DisableZoneMaps turns off per-block zone-map pruning on cold
	// (segment-backed) partitions: every block in a selected partition is decoded
	// and filtered row by row. Results are identical; only the work done
	// differs — the pruning differential test runs on exactly this toggle.
	DisableZoneMaps bool
	// DisableHotColumnar turns off the hot partitions' columnar shadow:
	// in-memory range scans evaluate predicates event by event instead of
	// through the batch kernel and dictionary verdict bitmaps. Results are
	// identical; the hot/columnar differential test runs on this toggle.
	DisableHotColumnar bool
	// DisableScanSpans ablates the per-scan trace hook (the span lookup and
	// counter fold in Snapshot.scan). It exists so BenchmarkTraceOverhead can
	// measure the disabled-tracing path against a genuinely uninstrumented
	// scan; production code never sets it.
	DisableScanSpans bool
	// Workers bounds scan parallelism; 0 means GOMAXPROCS.
	Workers int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// partKey identifies a spatial × temporal partition.
type partKey struct {
	agent int
	day   int
}

// partition holds one (agent, day)'s events in ascending (Start, Seq) order
// together with posting lists from entity id to event positions, plus the
// copy-on-write bookkeeping described in the package comment.
type partition struct {
	key       partKey
	events    []types.Event
	bySubject map[types.EntityID][]int32
	byObject  map[types.EntityID][]int32

	// cold, when non-nil, is the partition's sealed columnar prefix: rows
	// that live in mmap'ed segments, strictly older than every event in
	// the hot array above. See colpart.go.
	cold *coldPart

	// shadow is the partition's lazily-built columnar shadow over a prefix
	// of events (see hotcol.go). It is published atomically so scans read
	// it without the store lock; shadowMu serializes builders/extenders.
	// The shadow pins the events array it was built from by identity — a
	// re-sort or thaw replaces the array and the stale shadow is both
	// detected (base pointer mismatch) and proactively dropped.
	shadow   atomic.Pointer[hotShadow]
	shadowMu sync.Mutex

	// mapsShared marks the posting maps as possibly referenced by a live
	// snapshot: the next insertion must clone them first.
	mapsShared bool
	// eventsShared marks the events backing array as possibly referenced by
	// a live snapshot: tail appends remain safe, but a re-sort must copy.
	eventsShared bool
	// dirty records that events arrived out of order; the re-sort is
	// deferred to the end of the Ingest batch or the next Snapshot.
	dirty bool
}

// entityKey addresses the global entity attribute hash index.
type entityKey struct {
	typ  types.EntityType
	attr string
	val  string
}

// indexedAttrs lists, per entity type, the attributes served by hash
// indexes — the attributes the paper says are queried frequently.
var indexedAttrs = map[types.EntityType][]string{
	types.EntityFile:    {types.AttrName},
	types.EntityProcess: {types.AttrExeName, types.AttrPID},
	types.EntityNetwork: {types.AttrDstIP, types.AttrSrcIP, types.AttrDstPort},
}

// IngestObserver receives every applied mutation batch, after it has been
// applied to the store, together with the generation the batch produced.
// Invocations are strictly ordered by generation — the store serializes
// apply+notify so no observer ever sees batch G+1 before batch G — and run
// on the mutator's goroutine, outside the store's internal lock: the
// observer may read the store (Entity, Snapshot) but must not mutate it.
//
// Under the persistent store the observer fires inside the same batch
// boundary the WAL uses (Persistent.Ingest holds its journal lock across
// append, apply and notify), so the durable log and a streaming consumer
// agree exactly on which batches were acknowledged, and in which order.
type IngestObserver func(d *types.Dataset, generation uint64)

// Store is the AIQL-optimized event store.
type Store struct {
	opts Options

	// tapMu serializes mutation apply + observer notification so the
	// observer sees batches in generation order. It is taken before mu and
	// held across the notification; readers (snapshots, queries) take only
	// mu and are never blocked behind observer work.
	tapMu sync.Mutex
	obs   IngestObserver // aiql:guarded-by tapMu

	mu         sync.RWMutex
	entities   map[types.EntityID]*types.Entity
	byType     map[types.EntityType][]types.EntityID
	entityIdx  map[entityKey][]types.EntityID
	parts      map[partKey]*partition
	partList   []*partition // kept sorted by (day, agent); snapshots copy it
	eventCount int
	generation uint64

	// metaShared marks the three entity maps above as possibly referenced
	// by a live snapshot; the next entity insertion clones them first.
	metaShared bool
	// liveSnaps counts snapshots not yet closed. While zero, the shared
	// flags are cleared lazily instead of triggering clones.
	liveSnaps int
	// liveCursors counts scan cursors opened against this store's
	// snapshots and not yet finished — the cursor-level companion of
	// liveSnaps for leak hunting (atomic: cursors close on consumer
	// goroutines that must not take the store lock).
	liveCursors atomic.Int64

	// replMu guards the replicated-ingest applied-set (see repl.go). A
	// leaf lock: taken briefly under tapMu (or the persistent store's
	// walMu), never while holding mu, never across apply work.
	replMu         sync.Mutex
	repl           map[replKey]*replShard // aiql:guarded-by replMu
	replApplied    uint64                 // aiql:guarded-by replMu
	replDuplicates uint64                 // aiql:guarded-by replMu

	// scanStats counts cold-scan block traffic (atomic: incremented from
	// producer goroutines).
	scanStats scanCounters
	// coldErr latches the first cold-decode failure observed by a thaw, so
	// the persistent layer can surface corruption discovered off the read
	// path.
	coldErr error // aiql:guarded-by mu
}

// scanCounters aggregates zone-map and hot-path effectiveness across all
// scans.
type scanCounters struct {
	blocksConsidered      atomic.Int64
	blocksSkipped         atomic.Int64
	blocksDecoded         atomic.Int64
	thaws                 atomic.Int64
	hotBatches            atomic.Int64
	dictVerdictHits       atomic.Int64
	attrZoneSkips         atomic.Int64
	compressedBytesRead   atomic.Int64
	compressedBytesDecode atomic.Int64
}

// ScanStats is a point-in-time copy of the scan counters: how many column
// blocks queries considered, how many the zone maps pruned without touching
// (AttrZoneSkips counting the subset pruned by attribute trigram filters),
// how many actually decoded, how many partitions had to thaw back to the
// hot representation, how many hot row batches went through the vectorized
// kernel, how many hot rows had their entity predicates answered from
// dictionary verdict bitmaps, and how many stored vs. decoded bytes
// segment block decompression moved.
type ScanStats struct {
	BlocksConsidered      int64 `json:"blocks_considered"`
	BlocksSkipped         int64 `json:"blocks_skipped"`
	BlocksDecoded         int64 `json:"blocks_decoded"`
	Thaws                 int64 `json:"thaws"`
	HotBatches            int64 `json:"hot_batches"`
	DictVerdictHits       int64 `json:"dict_verdict_hits"`
	AttrZoneSkips         int64 `json:"attr_zone_skips"`
	CompressedBytesRead   int64 `json:"compressed_bytes_read"`
	CompressedBytesDecode int64 `json:"compressed_bytes_decoded"`
}

// ScanStats returns the store's cumulative scan counters.
func (s *Store) ScanStats() ScanStats {
	return ScanStats{
		BlocksConsidered:      s.scanStats.blocksConsidered.Load(),
		BlocksSkipped:         s.scanStats.blocksSkipped.Load(),
		BlocksDecoded:         s.scanStats.blocksDecoded.Load(),
		Thaws:                 s.scanStats.thaws.Load(),
		HotBatches:            s.scanStats.hotBatches.Load(),
		DictVerdictHits:       s.scanStats.dictVerdictHits.Load(),
		AttrZoneSkips:         s.scanStats.attrZoneSkips.Load(),
		CompressedBytesRead:   s.scanStats.compressedBytesRead.Load(),
		CompressedBytesDecode: s.scanStats.compressedBytesDecode.Load(),
	}
}

// New creates an empty store with the given options.
func New(opts Options) *Store {
	return &Store{
		opts:      opts,
		entities:  make(map[types.EntityID]*types.Entity),
		byType:    make(map[types.EntityType][]types.EntityID),
		entityIdx: make(map[entityKey][]types.EntityID),
		parts:     make(map[partKey]*partition),
	}
}

// Ingest loads a dataset as one atomic batch: snapshots taken concurrently
// see either none or all of it. Events must already be time sorted (Dataset
// guarantees this); ingestion appends to per-partition logs in order, and
// any partition that did receive out-of-order events is re-sorted once at
// the end of the batch, not per event.
func (s *Store) Ingest(d *types.Dataset) {
	s.tapMu.Lock()
	defer s.tapMu.Unlock()
	gen := s.applyBatch(d)
	if s.obs != nil {
		s.obs(d, gen)
	}
}

// applyBatch applies one batch under the store lock (deferred, so a panic
// mid-batch cannot leave the store wedged) and returns the new generation.
// Callers hold tapMu.
func (s *Store) applyBatch(d *types.Dataset) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range d.Entities {
		s.addEntityLocked(&d.Entities[i])
	}
	for i := range d.Events {
		s.addEventLocked(&d.Events[i])
	}
	s.sortDirtyLocked()
	s.generation++
	return s.generation
}

// SetIngestObserver installs the store's single ingest tap (nil removes
// it). The observer is invoked post-apply for every mutation batch; see
// IngestObserver for the ordering and locking contract.
func (s *Store) SetIngestObserver(fn IngestObserver) {
	s.tapMu.Lock()
	defer s.tapMu.Unlock()
	s.obs = fn
}

// AddEntity registers a single entity.
func (s *Store) AddEntity(e *types.Entity) {
	s.tapMu.Lock()
	defer s.tapMu.Unlock()
	gen := func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.addEntityLocked(e)
		s.generation++
		return s.generation
	}()
	if s.obs != nil {
		s.obs(types.NewDataset([]types.Entity{*e}, nil), gen)
	}
}

// AddEvent appends a single event. Out-of-order ingestion is tolerated: the
// partition is only marked dirty and re-sorted once, at the next Snapshot —
// a run of N out-of-order AddEvents costs one sort, not N.
func (s *Store) AddEvent(ev *types.Event) {
	s.tapMu.Lock()
	defer s.tapMu.Unlock()
	gen := func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.addEventLocked(ev)
		s.generation++
		return s.generation
	}()
	if s.obs != nil {
		s.obs(types.NewDataset(nil, []types.Event{*ev}), gen)
	}
}

// Generation returns a counter that increases monotonically with every
// mutation (Ingest, AddEvent or AddEntity). Callers caching query results
// key them by the generation observed at execution time: a cached result is
// valid exactly as long as the store still reports the same generation.
func (s *Store) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.generation
}

// LiveSnapshots returns the number of snapshots acquired and not yet
// closed — a diagnostic for leak hunting and for sizing the store's
// copy-on-write overhead under concurrent load.
func (s *Store) LiveSnapshots() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.liveSnaps
}

// LiveCursors returns the number of scan cursors opened against this
// store's snapshots and not yet exhausted or closed. Together with
// LiveSnapshots it is the leak diagnostic tests assert returns to baseline
// after every execution path, error paths included: an execution that
// errors without closing its cursor strands the producer goroutines and
// the copy-on-write protection they rely on.
func (s *Store) LiveCursors() int {
	return int(s.liveCursors.Load())
}

// cowMetaLocked makes the entity maps safe to mutate: if a live snapshot
// may reference them they are shallow-cloned, otherwise the stale shared
// flag is simply dropped.
func (s *Store) cowMetaLocked() {
	if !s.metaShared {
		return
	}
	if s.liveSnaps > 0 {
		entities := make(map[types.EntityID]*types.Entity, len(s.entities)+1)
		for k, v := range s.entities {
			entities[k] = v
		}
		byType := make(map[types.EntityType][]types.EntityID, len(s.byType))
		for k, v := range s.byType {
			byType[k] = v
		}
		entityIdx := make(map[entityKey][]types.EntityID, len(s.entityIdx))
		for k, v := range s.entityIdx {
			entityIdx[k] = v
		}
		s.entities, s.byType, s.entityIdx = entities, byType, entityIdx
	}
	s.metaShared = false
}

// cowPartLocked makes a partition's posting maps safe to mutate, cloning
// them when a live snapshot may hold references.
func (s *Store) cowPartLocked(p *partition) {
	if !p.mapsShared {
		return
	}
	if s.liveSnaps > 0 {
		bySubject := make(map[types.EntityID][]int32, len(p.bySubject))
		for k, v := range p.bySubject {
			bySubject[k] = v
		}
		byObject := make(map[types.EntityID][]int32, len(p.byObject))
		for k, v := range p.byObject {
			byObject[k] = v
		}
		p.bySubject, p.byObject = bySubject, byObject
	}
	p.mapsShared = false
}

func (s *Store) addEntityLocked(e *types.Entity) {
	if _, dup := s.entities[e.ID]; dup {
		return
	}
	s.cowMetaLocked()
	s.entities[e.ID] = e
	s.byType[e.Type] = append(s.byType[e.Type], e.ID)
	for _, attr := range indexedAttrs[e.Type] {
		if v, ok := e.Attrs[attr]; ok {
			k := entityKey{typ: e.Type, attr: attr, val: v}
			s.entityIdx[k] = append(s.entityIdx[k], e.ID)
		}
	}
}

func (s *Store) addEventLocked(ev *types.Event) {
	key := partKey{agent: ev.AgentID, day: timeutil.DayIndex(ev.Start)}
	p, ok := s.parts[key]
	if !ok {
		p = &partition{
			key:       key,
			bySubject: make(map[types.EntityID][]int32),
			byObject:  make(map[types.EntityID][]int32),
		}
		s.parts[key] = p
		s.insertPartLocked(p)
	}
	// An append at or before the cold maximum would break the
	// cold-before-hot ordering invariant; decode the cold prefix first.
	if p.cold != nil && ev.Start <= p.cold.maxStart {
		s.thawLocked(p)
	}
	s.cowPartLocked(p)
	pos := int32(len(p.events))
	if !p.dirty && pos > 0 && eventLess(ev, &p.events[pos-1]) {
		p.dirty = true
	}
	p.events = append(p.events, *ev)
	p.bySubject[ev.Subject] = append(p.bySubject[ev.Subject], pos)
	p.byObject[ev.Object] = append(p.byObject[ev.Object], pos)
	s.eventCount++
}

// installPartition installs a fully-formed partition decoded from an
// on-disk segment: events already sorted by (Start, Seq) and posting lists
// already built, so the common case is a pointer hand-off with no
// re-indexing. When the partition key already exists — WAL replay ran
// before the segment loaded, or two segments straddle the same (agent,
// day) — the events are appended one by one and the partition marked
// dirty, deferring the merge sort and posting rebuild to the next
// snapshot, exactly like out-of-order ingest.
func (s *Store) installPartition(key partKey, events []types.Event, bySubject, byObject map[types.EntityID][]int32) {
	if len(events) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.parts[key]
	if !ok {
		p = &partition{key: key, events: events, bySubject: bySubject, byObject: byObject}
		s.parts[key] = p
		s.insertPartLocked(p)
		s.eventCount += len(events)
		return
	}
	if p.cold != nil && events[0].Start <= p.cold.maxStart {
		s.thawLocked(p)
	}
	s.cowPartLocked(p)
	for i := range events {
		ev := &events[i]
		pos := int32(len(p.events))
		if !p.dirty && pos > 0 && eventLess(ev, &p.events[pos-1]) {
			p.dirty = true
		}
		p.events = append(p.events, *ev)
		p.bySubject[ev.Subject] = append(p.bySubject[ev.Subject], pos)
		p.byObject[ev.Object] = append(p.byObject[ev.Object], pos)
	}
	s.eventCount += len(events)
}

// insertPartLocked keeps partList sorted by (day, agent) with one binary
// search and shift per new partition, instead of re-sorting the whole list.
// Snapshots copy partList at acquisition, so in-place edits are safe.
func (s *Store) insertPartLocked(p *partition) {
	i := sort.Search(len(s.partList), func(i int) bool {
		k := s.partList[i].key
		if k.day != p.key.day {
			return k.day > p.key.day
		}
		return k.agent >= p.key.agent
	})
	s.partList = append(s.partList, nil)
	copy(s.partList[i+1:], s.partList[i:])
	s.partList[i] = p
}

// sortDirtyLocked restores temporal order in partitions that received
// out-of-order events, rebuilding their posting lists. An events array that
// was ever captured by a snapshot is copied before sorting — regardless of
// how many snapshots remain live, because Match.Event pointers handed out
// by past scans are interior pointers into that array and outlive the
// snapshot that produced them. Posting maps are rebuilt fresh either way.
func (s *Store) sortDirtyLocked() {
	for _, p := range s.partList {
		if !p.dirty {
			continue
		}
		if p.eventsShared {
			events := make([]types.Event, len(p.events))
			copy(events, p.events)
			p.events = events
		}
		p.eventsShared = false
		// The re-sort reorders rows, so any columnar shadow over the old
		// array is stale; readers would detect the base-pointer mismatch
		// anyway, but dropping it eagerly frees the columns.
		p.shadow.Store(nil)
		sort.Slice(p.events, func(i, j int) bool {
			return eventLess(&p.events[i], &p.events[j])
		})
		bySubject := make(map[types.EntityID][]int32, len(p.bySubject))
		byObject := make(map[types.EntityID][]int32, len(p.byObject))
		for i := range p.events {
			ev := &p.events[i]
			bySubject[ev.Subject] = append(bySubject[ev.Subject], int32(i))
			byObject[ev.Object] = append(byObject[ev.Object], int32(i))
		}
		p.bySubject, p.byObject = bySubject, byObject
		p.mapsShared = false
		p.dirty = false
	}
}

// EventCount returns the number of ingested events.
func (s *Store) EventCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eventCount
}

// PartitionCount returns the number of (agent, day) partitions.
func (s *Store) PartitionCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.partList)
}

// Entity returns the entity with the given id, or nil.
func (s *Store) Entity(id types.EntityID) *types.Entity {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.entities[id]
}

// EntityPair resolves two entities under one lock acquisition. The ingest
// tap resolves every event's subject and object on the hot path; the paired
// lookup halves its lock traffic.
func (s *Store) EntityPair(a, b types.EntityID) (*types.Entity, *types.Entity) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.entities[a], s.entities[b]
}

// DataQuery is the storage-level query synthesized from one AIQL event
// pattern (paper Fig. 3). All fields are conjunctive; zero values mean
// "unconstrained".
type DataQuery struct {
	// Agents restricts the spatial dimension; empty means all agents.
	Agents []int
	// Window restricts the temporal dimension.
	Window timeutil.Window
	// SubjType/ObjType restrict entity types (subjects are processes in
	// well-formed AIQL, but the engine passes the type through regardless).
	SubjType types.EntityType
	ObjType  types.EntityType
	// SubjPred/ObjPred are entity attribute predicates.
	SubjPred pred.Pred
	ObjPred  pred.Pred
	// Ops is the operation set from the pattern's <op_exp>.
	Ops types.OpSet
	// EvtPred constrains event attributes (amount, failcode, ...).
	EvtPred pred.Pred
	// SubjAllowed/ObjAllowed, when non-nil, restrict the subject/object to
	// previously discovered entities — this is how the relationship-based
	// scheduler pushes earlier results into later data queries
	// (Algorithm 1's "execute q_j under S_i").
	SubjAllowed map[types.EntityID]struct{}
	ObjAllowed  map[types.EntityID]struct{}
	// Limit stops the scan after this many matches (0 = unlimited).
	Limit int
	// ForceScan bypasses candidate-set resolution and posting lists,
	// evaluating every predicate per event row. The baseline emulations use
	// it to model semantics-agnostic executors that join event and entity
	// tables without AIQL's entity pre-resolution.
	ForceScan bool
}

// Match is one event matching a DataQuery, with resolved entities.
type Match struct {
	Event *types.Event
	Subj  *types.Entity
	Obj   *types.Entity
}

// Scan implements the engine's Backend interface: it acquires a snapshot,
// streams the query's matches through a cursor, and releases the snapshot
// when the cursor is exhausted or closed. Concurrent Ingest never blocks an
// in-flight scan, and the scan never observes a half-applied batch.
func (s *Store) Scan(ctx context.Context, q *DataQuery) Cursor {
	snap := s.Snapshot()
	return snap.scan(ctx, q, snap.Close)
}

// Run is the materializing adapter over Scan — the single canonical
// "execute a data query" entry point for callers that want the whole
// result at once. Canceling ctx aborts the scan between batches.
func (s *Store) Run(ctx context.Context, q *DataQuery) []Match {
	c := s.Scan(ctx, q)
	defer c.Close()
	return Drain(c)
}

// Agents returns the distinct agent ids present in the store, sorted.
func (s *Store) Agents() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := make(map[int]struct{})
	for _, p := range s.partList {
		set[p.key.agent] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// Days returns the distinct day indexes present in the store, sorted.
func (s *Store) Days() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := make(map[int]struct{})
	for _, p := range s.partList {
		set[p.key.day] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

func attrIndexed(t types.EntityType, attr string) bool {
	for _, a := range indexedAttrs[t] {
		if a == attr {
			return true
		}
	}
	return false
}

func eventLess(a, b *types.Event) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.Seq < b.Seq
}
