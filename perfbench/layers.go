package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"aiql/internal/cluster"
	"aiql/internal/mpp"
	"aiql/internal/storage"
	"aiql/internal/trace"
)

// The layer times of a traced query must account for its untraced time
// within these shares (median over the replayed queries): below the lower
// one, work went on outside every seam; above the upper one, the tracing
// itself distorts the breakdown. The spans cost the cheapest queries, which
// call into a cursor a few times in ~80 us, a few percent.
const (
	minAccounted = 0.90
	maxAccounted = 1.10
)

type layerResult struct {
	metrics  map[string]metric
	problems []string
	notes    []string
}

// perLayer derives the per-layer metrics of a traced run from the spans,
// the /stats deltas of the measured window and the client's samples, after
// replaying the workload's queries in process.
func perLayer(ctx context.Context, cfg config, in *inputs, orc *oracle, tr *tracer,
	samples []querySample, front stats, live []ingestSample, disk float64, dir string) (*layerResult, error) {
	lr := &layerResult{metrics: map[string]metric{}}
	set := func(name string, v float64, unit string) { lr.metrics[name] = metric{v, unit} }

	// In-process replay of the workload's queries, untraced and traced, on
	// the oracle's store, which holds what the single node holds. On adhoc
	// the stream is also replayed through coordinators over three worker
	// processes started here, so its traced run measures the cluster layer.
	qs := orc.seq
	if cfg.wl.live {
		qs = orc.corpus
	}
	rs, err := replayQueries(ctx, tr, replayTarget{store: orc.store}, qs, replayQueriesN)
	if err != nil {
		return nil, err
	}
	var crs *replayStats
	var coord cluster.Stats
	var scattered []int
	if !cfg.wl.live {
		workers, err := startWorkers(cfg.aiqld)
		if err != nil {
			return nil, err
		}
		defer workers.stop()
		if scattered, err = scatterTraced(tr, workers, in); err != nil {
			return nil, err
		}
		if crs, coord, err = replayCluster(ctx, tr, workers, orc.seq); err != nil {
			return nil, err
		}
		for _, bad := range clusterInvariants(coord) {
			lr.problems = append(lr.problems, "coordinator counters: "+bad)
		}
	}
	for _, r := range []struct {
		where string
		rs    *replayStats
	}{{"store", rs}, {"cluster", crs}} {
		if r.rs == nil {
			continue
		}
		if r.rs.mismatches > 0 {
			lr.problems = append(lr.problems, fmt.Sprintf("%s replay: %d answers differ from the oracle", r.where, r.rs.mismatches))
		}
		if r.rs.dataQueryDiffers > 0 {
			lr.problems = append(lr.problems, fmt.Sprintf("%s replay: %d queries issued different DataQueries traced and untraced", r.where, r.rs.dataQueryDiffers))
		}
		share := median(r.rs.layerShare)
		if share < minAccounted || share > maxAccounted {
			lr.problems = append(lr.problems, fmt.Sprintf("%s replay: traced layer times are %.3f of the untraced query time (median), outside [%.2f, %.2f]",
				r.where, share, minAccounted, maxAccounted))
		}
		lr.notes = append(lr.notes, fmt.Sprintf("%s replay: %d queries, each untraced and traced; traced layer times / untraced time: median %.3f",
			r.where, r.rs.queries, share))
	}

	// Durable ingest replay of the live day (investigate-live).
	var durable []int
	var walPerEvent float64
	if cfg.wl.live {
		durable, walPerEvent, err = replayDurable(tr, in, filepath.Join(dir, "replay"))
		if err != nil {
			return nil, err
		}
	}
	tr.index()

	// parser, engine
	set("parser.parse_us", median(rs.parseUs), "us")
	set("engine.prepare_us", median(rs.prepareUs), "us")
	set("engine.execute_ms", mean(rs.executeMs), "ms")
	set("engine.self_ms", mean(rs.selfMs), "ms")
	var dq, rows, respBytes, overhead []float64
	for _, s := range samples {
		if s.ok {
			dq = append(dq, float64(s.reply.DataQueries))
			rows = append(rows, float64(s.reply.RowCount))
			respBytes = append(respBytes, float64(s.bytes))
			overhead = append(overhead, ms(s.latency)-s.reply.ElapsedMs)
		}
	}
	set("engine.scans_per_query", mean(dq), "count")
	set("engine.matches_per_row", ratio(float64(rs.matches), float64(rs.rows)), "ratio")
	set("engine.budget_rejections", float64(orc.rejected), "count")

	// storage
	served := float64(front.QueriesServed)
	set("storage.snapshot_pin_us", median(rs.pinUs), "us")
	set("storage.scan_ms", mean(rs.scanMs), "ms")
	set("storage.matches_scanned", ratio(float64(rs.matches), float64(rs.queries)), "count")
	set("storage.hot_batches", ratio(float64(front.Scan.HotBatches), served), "count/query")
	set("storage.blocks_decoded_ratio", ratio(float64(front.Scan.BlocksDecoded), float64(front.Scan.BlocksConsidered)), "ratio")
	set("storage.compressed_bytes_decoded", ratio(float64(front.Scan.CompressedBytesDecode), served), "B/query")
	set("storage.thaws", float64(front.Scan.Thaws), "count")
	set("storage.apply_ms_per_kevent", perKevent(orc.histIngest, tr.self, in.historyEvents), "ms")
	set("storage.durable_ingest_ms", meanSpan(durable, tr.dur), "ms")
	set("storage.compactions", float64(front.Durability.Compactions), "count")
	set("storage.compaction_s", float64(front.Durability.CompactionNanos)/1e9, "s")
	set("storage.disk_bytes_per_event", disk, "B")

	// wal
	set("wal.fsyncs", float64(front.Durability.WALFsyncs), "count")
	set("wal.fsync_ms", ratio(float64(front.Durability.WALFsyncNanos)/1e6, float64(front.Durability.WALFsyncs)), "ms")
	set("wal.bytes_per_event", walPerEvent, "B")

	// trace (the JSON-lines codec)
	set("trace.decode_ms_per_kevent", perKevent(orc.histRead, tr.dur, in.historyEvents), "ms")

	// stream
	set("stream.match_ms_per_batch", meanSpan(orc.liveMatch, tr.dur), "ms")
	set("stream.emitted", float64(front.Streaming.Emitted), "count")

	// server
	set("server.overhead_ms", median(overhead), "ms")
	set("server.plan_cache_hit_ratio", front.PlanCache.hitRatio(), "ratio")
	set("server.result_cache_hit_ratio", front.ResultCache.hitRatio(), "ratio")
	var sumRows, sumBytes float64
	for i := range rows {
		sumRows += rows[i]
		sumBytes += respBytes[i]
	}
	set("server.response_bytes_per_row", ratio(sumBytes, sumRows), "B")

	// cluster
	var wireMs, decodeMs float64
	var cq, cwire, cmatches int64
	if crs != nil {
		wireMs = float64(crs.wireNanos) / 1e6
		for _, v := range crs.scanMs {
			decodeMs += v
		}
		decodeMs -= wireMs
		cq, cwire, cmatches = int64(crs.queries), crs.wireBytes, crs.matches
	}
	set("cluster.wire_wait_ms", ratio(wireMs, float64(cq)), "ms")
	set("cluster.decode_ms", ratio(decodeMs, float64(cq)), "ms")
	set("cluster.decode_share", ratio(decodeMs, decodeMs+wireMs), "ratio")
	set("cluster.wire_bytes_per_match", ratio(float64(cwire), float64(cmatches)), "B")
	set("cluster.worker_requests_per_scan", ratio(float64(coord.WorkerRequests), float64(coord.Scans)), "count")
	set("cluster.workers_pruned_ratio", ratio(float64(coord.WorkersPruned), float64(coord.Scans)*float64(coord.Workers)), "ratio")
	set("cluster.scatter_ingest_ms_per_kevent", perKevent(scattered, tr.dur, in.historyEvents), "ms")

	// The benchmark's own tracing: traced against untraced replay.
	traced, untraced := median(rs.tracedUs), median(rs.untracedUs)
	set("perfbench.traced_query_us", traced, "us")
	set("perfbench.untraced_query_us", untraced, "us")
	set("perfbench.tracing_overhead_ratio", ratio(traced, untraced), "ratio")
	set("perfbench.self_time_share", median(rs.layerShare), "ratio")

	// The load generator.
	var lateMax time.Duration
	for _, s := range live {
		lateMax = max(lateMax, s.late)
	}
	set("loadgen.query_samples", float64(len(samples)), "count")
	set("loadgen.ingest_samples", float64(len(live)), "count")
	set("loadgen.ingest_late_max_ms", ms(lateMax), "ms")
	return lr, nil
}

// replayCluster replays qs through two coordinators over the workers, a
// plain one for the untraced path and one with the timing client for the
// traced path, and returns the traced coordinator's counters.
func replayCluster(ctx context.Context, tr *tracer, workers group, qs []querySpec) (*replayStats, cluster.Stats, error) {
	var urls []string
	for _, w := range workers {
		urls = append(urls, w.url)
	}
	opts := cluster.Options{Placement: mpp.SemanticsAware, Replicas: 2}
	plain, err := cluster.New(urls, opts)
	if err != nil {
		return nil, cluster.Stats{}, err
	}
	wire := &wireClock{}
	opts.Client = wire.client()
	timed, err := cluster.New(urls, opts)
	if err != nil {
		return nil, cluster.Stats{}, err
	}
	rs, err := replayQueries(ctx, tr, replayTarget{plain: plain, timed: timed, wire: wire}, qs, replayQueriesN)
	return rs, timed.Stats(), err
}

// replayDurable ingests the live day into a fresh in-process persistent
// store (aiqld's defaults: group commit every 100 ms), timing each
// Persistent.Ingest, and returns the WAL bytes written per event.
func replayDurable(tr *tracer, in *inputs, dir string) ([]int, float64, error) {
	p, err := storage.OpenPersistent(dir, storage.PersistOptions{})
	if err != nil {
		return nil, 0, err
	}
	defer p.Close()
	var ids []int
	for _, b := range in.live {
		ds, err := trace.Read(bytes.NewReader(b.body))
		if err != nil {
			return nil, 0, err
		}
		id := tr.begin(0, "storage.Persistent.Ingest")
		err = p.Ingest(ds)
		tr.end(id)
		if err != nil {
			return nil, 0, err
		}
		ids = append(ids, id)
	}
	d := p.DurabilityStats()
	if d.Compactions != 0 {
		return nil, 0, fmt.Errorf("durable replay compacted; WAL bytes per event would be undercounted")
	}
	return ids, float64(d.WALBytes) / float64(in.liveEvents), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func meanSpan(ids []int, f func(int) time.Duration) float64 {
	var xs []float64
	for _, id := range ids {
		xs = append(xs, ms(f(id)))
	}
	return mean(xs)
}

func perKevent(ids []int, f func(int) time.Duration, events int) float64 {
	var sum time.Duration
	for _, id := range ids {
		sum += f(id)
	}
	return ms(sum) / (float64(events) / 1000)
}

// sourceDigest hashes the checkout's Go sources and module files, standing
// in for a commit ID where the checkout is not a git repository.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", f)
		_, _ = io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
