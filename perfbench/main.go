// Command perfbench is the repository's end-to-end benchmark. It starts
// aiqld as real processes on loopback, loads a seeded internal/gen dataset
// through /ingest, drives one workload from a single load-generator
// process, checks every answer against an in-process oracle, and prints
// each metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it through run.sh, from the repository root:
//
//	bash perfbench/run.sh --workload adhoc --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same workload again, records spans around calls into each layer's
// public seams, and reports the per-layer metrics. README.md lists the
// workloads, the metrics and which layer is expected to move which metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one traffic mix and the deployment it runs against.
type workload struct {
	name string
	why  string
	live bool // durable single node, analyst plus open-loop ingester
}

var workloads = []workload{
	{name: "adhoc", why: "distinct random queries on one in-memory aiqld: parse, plan, join and hot scan work on every request, no cache helps"},
	{name: "investigate-live", live: true, why: "paper corpus (fits both caches) beside an open-loop ingester on a durable aiqld: WAL, rule match, compaction, cold v3 scans"},
}

const (
	// setups is how many times an untraced run sets the deployment up from
	// scratch; setup_s and load_events_per_s are the medians.
	setups = 5
	// queryClients is the number of closed-loop query clients; with the
	// live ingester it is also the number of connections a run opens.
	queryClients = 2
	// warmup runs the clients before the measured window.
	warmup = time.Second
	// liveEvery is the open-loop ingester's schedule: one liveBatchEvents
	// batch per 10 ms, 1,400 events/s. README.md gives the reasons.
	liveEvery = 10 * time.Millisecond
	// lateLimit marks a live run invalid when any batch went out this far
	// behind schedule: ten batches queued behind one another, a whole
	// group-commit interval, so the ingester no longer offered the set rate.
	lateLimit = 100 * time.Millisecond
	// replayQueriesN is how many queries a traced run replays in process.
	replayQueriesN = 1000
)

type config struct {
	wl      workload
	seed    int64
	seconds int
	traced  bool
	aiqld   string
	workdir string
}

func main() {
	name := flag.String("workload", "", "workload: adhoc or investigate-live")
	seed := flag.Int64("seed", 1, "seed for the dataset and the query stream")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bin := flag.String("aiqld", "", "aiqld binary")
	workdir := flag.String("workdir", "", "scratch directory for data directories and spans")
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, aiqld: *bin, workdir: *workdir}
	found := false
	for _, w := range workloads {
		if w.name == *name {
			cfg.wl, found = w, true
		}
	}
	if err := func() error {
		switch {
		case !found:
			return fmt.Errorf("unknown -workload %q", *name)
		case *seconds < 1:
			return errors.New("-seconds must be at least 1")
		case *traceFlag != 0 && *traceFlag != 1:
			return errors.New("-trace must be 0 or 1")
		case *bin == "" || *workdir == "":
			return errors.New("-aiqld and -workdir are required (run through run.sh)")
		}
		return nil
	}(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome: the reported metrics, the table-only figures
// and the checks that failed.
type result struct {
	meta      map[string]any
	metrics   map[string]metric // the JSON line
	extra     map[string]metric // printed in the table only
	notes     []string          // sample counts and other context
	problems  []string          // failed checks; any makes correct false
	attempted int
	failed    int
}

func (r *result) set(name string, v float64, unit string)  { r.metrics[name] = metric{v, unit} }
func (r *result) info(name string, v float64, unit string) { r.extra[name] = metric{v, unit} }
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) print(w *os.File) {
	meta, _ := json.Marshal(r.meta)
	fmt.Fprintf(w, "# run %s\n", meta)
	names := make([]string, 0, len(r.metrics)+len(r.extra))
	for n := range r.metrics {
		names = append(names, n)
	}
	for n := range r.extra {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			m = r.extra[n]
		}
		fmt.Fprintf(w, "%-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, r.metrics})
	fmt.Fprintf(w, "%s\n", out)
}

func run(cfg config) (*result, error) {
	if n := runtime.NumCPU(); n < queryClients {
		return nil, fmt.Errorf("needs %d CPUs for its %d request-issuing goroutines, have %d", queryClients, queryClients, n)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	in, err := makeInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	// The ingester sends one batch per slot of the window; the live day
	// must outlast it.
	if slots := int(time.Duration(cfg.seconds) * time.Second / liveEvery); cfg.wl.live && slots >= len(in.live) {
		return nil, fmt.Errorf("a %d s window needs %d live batches, the live day has %d (%v each): use at most %d seconds",
			cfg.seconds, slots, len(in.live), liveEvery, (len(in.live)-1)*int(liveEvery)/int(time.Second))
	}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	orc, err := buildOracle(ctx, in, cfg.wl.live, tr)
	if err != nil {
		return nil, err
	}
	r := &result{metrics: map[string]metric{}, extra: map[string]metric{}, meta: runMeta(cfg, in, orc)}

	// Set the deployment up from scratch several times; the last one
	// serves the measured window.
	n := setupsPerRun(cfg)
	var setupS, loadRate []float64
	var loadAcks [][]ingestSample
	var dep *deployment
	for k := 0; k < n; k++ {
		if dep != nil {
			dep.front.stop()
		}
		// Collect this process's own garbage (the oracle's, the previous
		// set-up's) now, so its collector does not compete with the load.
		runtime.GC()
		var s setupResult
		dep, s, err = setUp(cfg, in, dir, k)
		if err != nil {
			if dep != nil {
				dep.front.stop()
			}
			return nil, err
		}
		setupS = append(setupS, s.total.Seconds())
		loadRate = append(loadRate, float64(in.historyEvents)/s.load.Seconds())
		loadAcks = append(loadAcks, s.acks)
	}
	defer dep.front.stop()

	c := newHTTPClient(queryClients)
	admin := newHTTPClient(1)
	if cfg.wl.live {
		for _, rule := range in.rules {
			if err := postJSON(admin, dep.front.url+"/rules", rule); err != nil {
				return nil, err
			}
		}
	}
	var front0, front1 stats
	if err := getJSON(admin, dep.front.url+"/stats", &front0); err != nil {
		return nil, err
	}
	runtime.GC()

	measureFrom := time.Now().Add(warmup)
	stop := measureFrom.Add(time.Duration(cfg.seconds) * time.Second)
	rssc := make(chan []float64, 1)
	go func() { rssc <- sampleRSS(dep.front, measureFrom, stop) }()
	var samples []querySample
	var live []ingestSample
	if cfg.wl.live {
		done := make(chan []ingestSample)
		go func() { done <- runIngester(c, dep.front.url, in.live, measureFrom, stop, liveEvery) }()
		samples = runQueryClients(c, dep.front.url, 1, orc.corpus, measureFrom, stop)
		live = <-done
	} else {
		samples = runQueryClients(c, dep.front.url, queryClients, orc.seq, measureFrom, stop)
	}

	if err := getJSON(admin, dep.front.url+"/stats", &front1); err != nil {
		return nil, err
	}
	front := front1.minus(front0)
	for _, bad := range front.invariants() {
		r.fail("store counters: %s", bad)
	}
	rss := <-rssc
	if len(rss) == 0 {
		return nil, errors.New("no resident-set samples")
	}
	peak, err := dep.front.statusMB("VmHWM")
	if err != nil {
		return nil, err
	}

	// End-to-end figures.
	q := summarizeQueries(samples, measureFrom, cfg.seconds)
	r.attempted, r.failed = len(samples), len(samples)-q.ok
	if q.mismatches > 0 {
		r.fail("%d served answers differ from the oracle", q.mismatches)
	}
	if q.ok < 2 {
		return nil, fmt.Errorf("only %d successful queries in the measured window", q.ok)
	}
	r.set("setup_s", median(setupS), "s")
	r.notes = append(r.notes, fmt.Sprintf("set-up times %s s, history loads %s events/s", fmtList(setupS, "%.3f"), fmtList(loadRate, "%.0f")))
	r.info("load_events_per_s", median(loadRate), "1/s")
	r.set("query_p50_ms", q.p50, "ms")
	r.set("query_p99_ms", q.p99, "ms")
	r.set("queries_per_s", q.rate, "1/s")
	r.set("server_rss_mb", median(rss), "MB")
	r.info("server_peak_rss_mb", peak, "MB")
	r.info("query_failed_ratio", float64(r.failed)/float64(r.attempted), "ratio")
	r.notes = append(r.notes, fmt.Sprintf("query percentiles over %d successful samples (%d attempted, %d beyond p99)",
		q.ok, len(samples), q.ok-int(0.99*float64(q.ok))))
	// Ingest acks: the live ingester's batches on investigate-live, the
	// history loads' batches of every set-up elsewhere.
	var acks []ingestSample
	for _, a := range loadAcks {
		acks = append(acks, a...)
	}
	ackWhat := "history-load batches over all set-ups (closed loop, timed from send)"
	if cfg.wl.live {
		acks, ackWhat = live, "live batches (open loop, timed from due)"
		checkLive(r, in, orc, dep, admin, live, front1)
	}
	if !cfg.traced {
		var ackMs []float64
		for _, a := range acks {
			if a.ok {
				ackMs = append(ackMs, ms(a.ack))
			}
		}
		if len(ackMs) == 0 {
			return nil, errors.New("no acknowledged ingest batches")
		}
		r.set("ingest_ack_p50_ms", percentile(ackMs, 50), "ms")
		r.info("ingest_ack_p99_ms", percentile(ackMs, 99), "ms")
		r.notes = append(r.notes, fmt.Sprintf("ingest ack percentiles over %d %s", len(ackMs), ackWhat))
	} else {
		layers, err := perLayer(ctx, cfg, in, orc, tr, samples, front, live, r.extra["disk_bytes_per_event"].Value, dir)
		if err != nil {
			return nil, err
		}
		r.metrics = layers.metrics
		r.problems = append(r.problems, layers.problems...)
		r.notes = append(r.notes, layers.notes...)
		spans := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.json", cfg.wl.name, cfg.seed))
		if err := tr.write(spans); err != nil {
			return nil, err
		}
		r.notes = append(r.notes, "spans written to "+spans)
	}
	return r, nil
}

// checkLive verifies the live workload: every batch acknowledged, every
// batch sent on schedule, and each rule's emissions equal to the oracle
// matcher's after the same number of batches.
func checkLive(r *result, in *inputs, orc *oracle, dep *deployment, admin *http.Client, live []ingestSample, after stats) {
	acked := 0
	var late time.Duration
	for _, s := range live {
		if s.ok {
			acked++
		}
		late = max(late, s.late)
	}
	r.attempted += len(live)
	r.failed += len(live) - acked
	r.info("ingest_failed_ratio", float64(len(live)-acked)/float64(max(1, len(live))), "ratio")
	if len(live) == 0 {
		r.fail("the ingester sent no batches")
		return
	}
	r.info("ingest_late_max_ms", ms(late), "ms")
	r.notes = append(r.notes, fmt.Sprintf("ingester: %d batches of %d events every %v; the latest went out %.3f ms behind schedule",
		len(live), liveBatchEvents, liveEvery, ms(late)))
	if late > lateLimit {
		r.fail("the ingester fell behind schedule (a batch went out %.1f ms late, limit %v): run invalid", ms(late), lateLimit)
	}
	if len(live) >= len(in.live) {
		r.fail("the ingester ran out of live batches")
	}
	var rules struct {
		Rules []struct {
			ID  string `json:"id"`
			Seq uint64 `json:"seq"`
		} `json:"rules"`
	}
	if err := getJSON(admin, dep.front.url+"/rules", &rules); err != nil {
		r.fail("list rules: %v", err)
		return
	}
	want := orc.ruleSeq[acked]
	got := map[string]uint64{}
	for _, ru := range rules.Rules {
		got[ru.ID] = ru.Seq
	}
	for i, ru := range in.rules {
		if got[ru.ID] != want[i] {
			r.fail("rule %s emitted %d, oracle %d after %d batches", ru.ID, got[ru.ID], want[i], acked)
		}
	}
	bytes, err := dirBytes(dep.dataDir)
	if err != nil {
		r.fail("size data dir: %v", err)
		return
	}
	r.info("disk_bytes_per_event", float64(bytes)/float64(after.Events), "B")
}

// queryStats summarizes the measured query samples.
type queryStats struct {
	ok, mismatches int
	p50, p99, rate float64
	latMs          []float64
}

func summarizeQueries(samples []querySample, from time.Time, seconds int) queryStats {
	var q queryStats
	perSecond := make([]float64, seconds)
	for _, s := range samples {
		if s.mismatch {
			q.mismatches++
		}
		if !s.ok {
			continue
		}
		q.ok++
		q.latMs = append(q.latMs, ms(s.latency))
		if i := int(s.start.Add(s.latency).Sub(from) / time.Second); i < seconds {
			perSecond[i]++
		}
	}
	if q.ok > 0 {
		q.p50 = percentile(q.latMs, 50)
		q.p99 = percentile(q.latMs, 99)
		// The median second resists a few seconds of interference.
		q.rate = median(perSecond)
	}
	return q
}

// percentile is the nearest-rank percentile of xs (xs is sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(p/100*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func setupsPerRun(cfg config) int {
	if cfg.traced {
		return 1
	}
	return setups
}

// runMeta records what a result depends on: the machine, the toolchain,
// the code, the seed, the scale and the flush policy.
func runMeta(cfg config, in *inputs, orc *oracle) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload":      cfg.wl.name,
		"why":           cfg.wl.why,
		"traced":        cfg.traced,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"nproc":         runtime.NumCPU(),
		"cpu":           cpu,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest(),
		"scale": map[string]any{
			"hosts": scaleHosts, "days": scaleDays, "background_per_host_day": scaleBG,
			"history_events": in.historyEvents, "live_events": in.liveEvents,
			"history_batch_events": historyBatchEvents, "live_batch_events": liveBatchEvents, "live_batches_per_s": int(time.Second / liveEvery),
			"adhoc_sequence": len(orc.seq), "adhoc_draws": orc.draws, "over_budget_draws": orc.rejected,
			"scaled_tuple_budget": in.scaledTupleBudget(), "scaled_compact_threshold_bytes": in.scaledCompactThreshold(),
		},
		"flush_policy":   "-wal-sync interval -wal-flush 100ms (group commit)",
		"query_clients":  queryClients,
		"setups_per_run": setupsPerRun(cfg),
	}
}
