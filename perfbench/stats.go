package main

import (
	"fmt"

	"aiql/internal/cluster"
)

// stats is the part of aiqld's /stats the benchmark reads. Every field is
// a cumulative counter, so a run's figure is the difference of two reads.
type stats struct {
	Events        int        `json:"events"`
	QueriesServed uint64     `json:"queries_served"`
	PlanCache     cacheStats `json:"plan_cache"`
	ResultCache   cacheStats `json:"result_cache"`
	Scan          struct {
		BlocksConsidered      int64 `json:"blocks_considered"`
		BlocksSkipped         int64 `json:"blocks_skipped"`
		BlocksDecoded         int64 `json:"blocks_decoded"`
		Thaws                 int64 `json:"thaws"`
		HotBatches            int64 `json:"hot_batches"`
		CompressedBytesDecode int64 `json:"compressed_bytes_decoded"`
	} `json:"scan"`
	Durability struct {
		WALBytes        int64  `json:"wal_bytes"`
		Segments        int    `json:"segments"`
		SegmentsV3      int    `json:"segments_v3"`
		Compactions     uint64 `json:"compactions"`
		CompactionNanos int64  `json:"compaction_nanos"`
		WALFsyncs       uint64 `json:"wal_fsyncs"`
		WALFsyncNanos   int64  `json:"wal_fsync_nanos"`
	} `json:"durability"`
	Streaming struct {
		Emitted uint64 `json:"emitted"`
	} `json:"streaming"`
}

type cacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

func (c cacheStats) minus(o cacheStats) cacheStats {
	return cacheStats{Hits: c.Hits - o.Hits, Misses: c.Misses - o.Misses}
}

func (c cacheStats) hitRatio() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// minus is the counter delta a-b.
func (a stats) minus(b stats) stats {
	d := a
	d.PlanCache = a.PlanCache.minus(b.PlanCache)
	d.ResultCache = a.ResultCache.minus(b.ResultCache)
	d.Scan.BlocksConsidered -= b.Scan.BlocksConsidered
	d.Scan.BlocksSkipped -= b.Scan.BlocksSkipped
	d.Scan.BlocksDecoded -= b.Scan.BlocksDecoded
	d.Scan.Thaws -= b.Scan.Thaws
	d.Scan.HotBatches -= b.Scan.HotBatches
	d.Scan.CompressedBytesDecode -= b.Scan.CompressedBytesDecode
	d.Durability.Compactions -= b.Durability.Compactions
	d.Durability.CompactionNanos -= b.Durability.CompactionNanos
	d.Durability.WALFsyncs -= b.Durability.WALFsyncs
	d.Durability.WALFsyncNanos -= b.Durability.WALFsyncNanos
	d.Streaming.Emitted -= b.Streaming.Emitted
	d.QueriesServed -= b.QueriesServed
	return d
}

// invariants checks the counter identity every scan delta must satisfy.
func (d stats) invariants() []string {
	if d.Scan.BlocksDecoded+d.Scan.BlocksSkipped != d.Scan.BlocksConsidered {
		return []string{fmt.Sprintf("blocks_decoded %d + blocks_skipped %d != blocks_considered %d",
			d.Scan.BlocksDecoded, d.Scan.BlocksSkipped, d.Scan.BlocksConsidered)}
	}
	return nil
}

// clusterInvariants checks a coordinator's counters: every scan either asked
// or pruned each worker, and no worker failed.
func clusterInvariants(c cluster.Stats) []string {
	var bad []string
	if c.WorkerRequests+c.WorkersPruned != c.Scans*uint64(c.Workers) {
		bad = append(bad, fmt.Sprintf("worker_requests %d + workers_pruned %d != scans %d x workers %d",
			c.WorkerRequests, c.WorkersPruned, c.Scans, c.Workers))
	}
	if c.WorkerFailures != 0 || c.Failovers != 0 {
		bad = append(bad, fmt.Sprintf("%d worker failures, %d failovers", c.WorkerFailures, c.Failovers))
	}
	return bad
}
