package cluster

import (
	"fmt"

	"aiql/internal/pred"
	"aiql/internal/storage"
	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// The /scan response body is JSON-lines in the trace package's format, the
// same records /ingest accepts: each entity goes out once, before the first
// event that references it, and events carry their subject and object ids.
// The framing travels as HTTP metadata instead of in-band records:
//
//   - ShardHeader, a response header, carries the answering worker's shard
//     index (-1 when it has none). A response without it is not a worker
//     /scan stream.
//   - ScanRowsTrailer, a declared trailer, carries the number of events
//     sent. It is what lets the coordinator tell a complete result from a
//     connection that died mid-stream: a body that ends without it is a
//     truncated stream and surfaces as a worker failure, never as a short
//     result.
//   - ScanErrorTrailer, a declared trailer, reports a scan that failed after
//     the stream was underway.
const (
	ShardHeader      = "X-Aiql-Shard"
	ScanRowsTrailer  = "X-Aiql-Scan-Rows"
	ScanErrorTrailer = "X-Aiql-Scan-Error"
)

// WireQuery is the JSON form of a storage.DataQuery as POSTed to a worker's
// /scan endpoint. Everything the engine synthesizes crosses the wire —
// including the allow-sets and extra predicates constrained execution
// pushed down — so a worker executes exactly the data query a local scan
// would have. Operations and entity types travel as names, predicates as
// pred.Node trees; both decode into freshly compiled values on the worker.
type WireQuery struct {
	Agents   []int      `json:"agents,omitempty"`
	From     int64      `json:"from,omitempty"`
	To       int64      `json:"to,omitempty"`
	SubjType string     `json:"subj_type,omitempty"`
	ObjType  string     `json:"obj_type,omitempty"`
	SubjPred *pred.Node `json:"subj_pred,omitempty"`
	ObjPred  *pred.Node `json:"obj_pred,omitempty"`
	EvtPred  *pred.Node `json:"evt_pred,omitempty"`
	Ops      []string   `json:"ops,omitempty"`
	// SubjAllowed/ObjAllowed restrict entities to scheduler-discovered ids.
	// The Has* flags distinguish "no constraint" (absent) from "empty
	// allow-set" (a query that can match nothing): omitempty erases the
	// difference on the slice alone.
	SubjAllowed    []uint64 `json:"subj_allowed,omitempty"`
	HasSubjAllowed bool     `json:"has_subj_allowed,omitempty"`
	ObjAllowed     []uint64 `json:"obj_allowed,omitempty"`
	HasObjAllowed  bool     `json:"has_obj_allowed,omitempty"`
	Limit          int      `json:"limit,omitempty"`
	ForceScan      bool     `json:"force_scan,omitempty"`
	// Shard/NShards, when NShards > 0, ask the worker to return only rows
	// whose home shard (under the semantics-aware placement over NShards
	// workers) is Shard. A replicated worker's store holds two shards'
	// data — its own and the one it replicates — and an unfiltered scan
	// would double-count rows across the gather. The worker applies any
	// Limit after this filter.
	Shard   int `json:"shard,omitempty"`
	NShards int `json:"nshards,omitempty"`
}

// EncodeQuery converts a data query to its wire form.
func EncodeQuery(q *storage.DataQuery) (*WireQuery, error) {
	w := &WireQuery{
		Agents: q.Agents,
		From:   q.Window.From, To: q.Window.To,
		Limit:     q.Limit,
		ForceScan: q.ForceScan,
	}
	if q.SubjType != types.EntityInvalid {
		w.SubjType = q.SubjType.String()
	}
	if q.ObjType != types.EntityInvalid {
		w.ObjType = q.ObjType.String()
	}
	var err error
	if w.SubjPred, err = pred.Encode(q.SubjPred); err != nil {
		return nil, err
	}
	if w.ObjPred, err = pred.Encode(q.ObjPred); err != nil {
		return nil, err
	}
	if w.EvtPred, err = pred.Encode(q.EvtPred); err != nil {
		return nil, err
	}
	for op := types.Op(1); int(op) <= types.NumOps; op++ {
		if q.Ops.Contains(op) {
			w.Ops = append(w.Ops, op.String())
		}
	}
	w.SubjAllowed, w.HasSubjAllowed = encodeIDSet(q.SubjAllowed)
	w.ObjAllowed, w.HasObjAllowed = encodeIDSet(q.ObjAllowed)
	return w, nil
}

// DataQuery rebuilds the storage-level query on the worker side.
func (w *WireQuery) DataQuery() (*storage.DataQuery, error) {
	q := &storage.DataQuery{
		Agents:    w.Agents,
		Window:    timeutil.Window{From: w.From, To: w.To},
		Limit:     w.Limit,
		ForceScan: w.ForceScan,
	}
	var ok bool
	if w.SubjType != "" {
		if q.SubjType, ok = types.ParseEntityType(w.SubjType); !ok {
			return nil, fmt.Errorf("cluster: unknown entity type %q", w.SubjType)
		}
	}
	if w.ObjType != "" {
		if q.ObjType, ok = types.ParseEntityType(w.ObjType); !ok {
			return nil, fmt.Errorf("cluster: unknown entity type %q", w.ObjType)
		}
	}
	var err error
	if q.SubjPred, err = pred.Decode(w.SubjPred); err != nil {
		return nil, err
	}
	if q.ObjPred, err = pred.Decode(w.ObjPred); err != nil {
		return nil, err
	}
	if q.EvtPred, err = pred.Decode(w.EvtPred); err != nil {
		return nil, err
	}
	for _, name := range w.Ops {
		op, ok := types.ParseOp(name)
		if !ok {
			return nil, fmt.Errorf("cluster: unknown operation %q", name)
		}
		q.Ops = q.Ops.Add(op)
	}
	q.SubjAllowed = decodeIDSet(w.SubjAllowed, w.HasSubjAllowed)
	q.ObjAllowed = decodeIDSet(w.ObjAllowed, w.HasObjAllowed)
	return q, nil
}

func encodeIDSet(set map[types.EntityID]struct{}) ([]uint64, bool) {
	if set == nil {
		return nil, false
	}
	ids := make([]uint64, 0, len(set))
	for id := range set {
		ids = append(ids, uint64(id))
	}
	return ids, true
}

func decodeIDSet(ids []uint64, has bool) map[types.EntityID]struct{} {
	if !has {
		return nil
	}
	set := make(map[types.EntityID]struct{}, len(ids))
	for _, id := range ids {
		set[types.EntityID(id)] = struct{}{}
	}
	return set
}
