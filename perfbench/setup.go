package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"aiql/internal/cluster"
	"aiql/internal/mpp"
	"aiql/internal/trace"
)

// clusterWorkers is the worker count of the traced run's cluster replay.
const clusterWorkers = 3

// setupResult times one set-up: process start to ready with the history
// loaded (and, for investigate-live, compaction settled).
type setupResult struct {
	total, load time.Duration
	acks        []ingestSample
}

// deployment is the aiqld process a workload runs against.
type deployment struct {
	front   *aiqld
	dataDir string // investigate-live only
}

// setUp starts the workload's aiqld process and loads the history. It
// returns the deployment even on error, so the caller can stop what started.
func setUp(cfg config, in *inputs, dir string, k int) (*deployment, setupResult, error) {
	var s setupResult
	start := time.Now()
	dep := &deployment{}
	fail := func(err error) (*deployment, setupResult, error) {
		if dep.front == nil {
			return nil, s, err
		}
		return dep, s, err
	}
	var front *aiqld
	var err error
	if cfg.wl.live {
		dep.dataDir = filepath.Join(dir, fmt.Sprintf("data-%d", k))
		front, err = startAiqld(cfg.aiqld, "aiqld", liveArgs(in, dep.dataDir)...)
	} else {
		// A single in-memory node must be given a dataset at start; an
		// empty one makes it wait for the history over /ingest.
		empty := filepath.Join(dir, "empty.jsonl")
		if err := os.WriteFile(empty, nil, 0o644); err != nil {
			return fail(err)
		}
		front, err = startAiqld(cfg.aiqld, "aiqld", "-data", empty)
	}
	if err != nil {
		return fail(err)
	}
	dep.front = front
	if err := front.waitReady(); err != nil {
		return fail(err)
	}

	c := newHTTPClient(1)
	if s.load, s.acks, err = loadHistory(c, front.url, in.history); err != nil {
		return fail(err)
	}
	var loaded stats
	if err := getJSON(c, front.url+"/stats", &loaded); err != nil {
		return fail(err)
	}
	if loaded.Events != in.historyEvents {
		return fail(fmt.Errorf("after the history load the store holds %d events, want %d", loaded.Events, in.historyEvents))
	}
	if cfg.wl.live {
		if err := settle(c, front.url, in.scaledCompactThreshold()); err != nil {
			return fail(err)
		}
		// Compacted batches stay in memory in the process that ingested
		// them; a restart recovers the segments as cold columnar runs and
		// replays only the WAL tail, which is how a long-lived store serves
		// its history.
		front.stop()
		if dep.front, err = startAiqld(cfg.aiqld, "aiqld", liveArgs(in, dep.dataDir)...); err != nil {
			return fail(err)
		}
		if err := dep.front.waitReady(); err != nil {
			return fail(err)
		}
		var st stats
		if err := getJSON(c, dep.front.url+"/stats", &st); err != nil {
			return fail(err)
		}
		if st.Events != in.historyEvents || st.Durability.SegmentsV3 == 0 {
			return fail(fmt.Errorf("recovered %d events from %d v3 segments, want %d events", st.Events, st.Durability.SegmentsV3, in.historyEvents))
		}
	}
	s.total = time.Since(start)
	return dep, s, nil
}

func liveArgs(in *inputs, dataDir string) []string {
	return []string{"-data-dir", dataDir, "-wal-sync", "interval", "-wal-flush", "100ms",
		"-compact-threshold", strconv.FormatInt(in.scaledCompactThreshold(), 10)}
}

// startWorkers starts the cluster's worker processes and waits until each
// is ready, stopping them all if one fails.
func startWorkers(bin string) (group, error) {
	var workers group
	for i := 0; i < clusterWorkers; i++ {
		w, err := startAiqld(bin, fmt.Sprintf("worker%d", i), "-role", "worker", "-shard", strconv.Itoa(i))
		if err == nil {
			err = w.waitReady()
			workers = append(workers, w)
		}
		if err != nil {
			workers.stop()
			return nil, err
		}
	}
	return workers, nil
}

// scatterTraced loads the history through an in-process coordinator over
// the workers at -replicas 2, timing the scatter of each batch, and returns
// the spans.
func scatterTraced(tr *tracer, workers group, in *inputs) ([]int, error) {
	var urls []string
	for _, w := range workers {
		urls = append(urls, w.url)
	}
	coord, err := cluster.New(urls, cluster.Options{Placement: mpp.SemanticsAware, Replicas: 2})
	if err != nil {
		return nil, err
	}
	var ids []int
	for i, b := range in.history {
		ds, err := trace.Read(bytes.NewReader(b.body))
		if err != nil {
			return nil, err
		}
		id := tr.begin(0, "cluster.Coordinator.Ingest")
		err = coord.Ingest(context.Background(), ds)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("scatter history batch %d: %w", i, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// settle waits until background compaction has folded the history into
// segments: at least one compaction ran, the WAL is below the threshold,
// and no compaction finished in the last 300 ms.
func settle(c *http.Client, url string, threshold int64) error {
	deadline := time.Now().Add(60 * time.Second)
	var last uint64
	stable := time.Now()
	for {
		var s stats
		if err := getJSON(c, url+"/stats", &s); err != nil {
			return err
		}
		if s.Durability.Compactions != last {
			last, stable = s.Durability.Compactions, time.Now()
		}
		if last > 0 && s.Durability.WALBytes < threshold && time.Since(stable) >= 300*time.Millisecond {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("compaction did not settle within 60s (%d compactions, WAL %d bytes)", last, s.Durability.WALBytes)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
