package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aiql/internal/cluster"
	"aiql/internal/engine"
	"aiql/internal/storage"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public seam. Parent 0 marks a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per seam.
type tracer struct {
	mu       sync.Mutex
	origin   time.Time
	spans    []span
	children map[int][]int // built by index after recording ends
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) dur(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return s.End - s.Start
}

// index builds the parent → children map; call once recording has ended.
func (t *tracer) index() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.children = make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s.ID)
		}
	}
}

// self is a span's duration minus the part of its interval that its
// children cover (overlapping children are counted once).
func (t *tracer) self(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	var iv [][2]time.Duration
	for _, c := range t.children[id] {
		cs := t.spans[c-1]
		iv = append(iv, [2]time.Duration{max(cs.Start, s.Start), min(cs.End, s.End)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach time.Duration
	reach = s.Start
	for _, v := range iv {
		if v[1] <= reach {
			continue
		}
		covered += v[1] - max(v[0], reach)
		reach = v[1]
	}
	return s.End - s.Start - covered
}

// childTotal sums the durations of a span's children named name.
func (t *tracer) childTotal(id int, name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, c := range t.children[id] {
		if cs := t.spans[c-1]; cs.Name == name {
			sum += cs.End - cs.Start
		}
	}
	return sum
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scanClock records the engine's calls into a backend cursor as child spans
// of one execution and counts the matches they return.
type scanClock struct {
	tr      *tracer
	parent  int
	name    string
	matches atomic.Int64
}

func (c *scanClock) open(open func() storage.Cursor) storage.Cursor {
	id := c.tr.begin(c.parent, c.name)
	cur := open()
	c.tr.end(id)
	return &timedCursor{inner: cur, clock: c}
}

// timedCursor times Next and Close on the consumer's goroutine.
type timedCursor struct {
	inner storage.Cursor
	clock *scanClock
}

func (c *timedCursor) Next(b []storage.Match) int {
	id := c.clock.tr.begin(c.clock.parent, c.clock.name)
	n := c.inner.Next(b)
	c.clock.tr.end(id)
	c.clock.matches.Add(int64(n))
	return n
}

func (c *timedCursor) Err() error { return c.inner.Err() }

func (c *timedCursor) Close() {
	id := c.clock.tr.begin(c.clock.parent, c.clock.name)
	c.inner.Close()
	c.clock.tr.end(id)
}

// snapBackend is the timing decorator over a pinned snapshot. It takes a
// *storage.Snapshot, never a *storage.Store: the engine re-pins a Store on
// every run, which a wrapper would hide. It forwards engine.Estimator,
// which Snapshot implements, and like Snapshot it does not implement
// engine.DaySplitting.
type snapBackend struct {
	snap  *storage.Snapshot
	clock *scanClock
}

var _ engine.Estimator = snapBackend{}

func (b snapBackend) Scan(ctx context.Context, q *storage.DataQuery) storage.Cursor {
	return b.clock.open(func() storage.Cursor { return b.snap.Scan(ctx, q) })
}

func (b snapBackend) Estimate(q *storage.DataQuery) int { return b.snap.Estimate(q) }

// coordBackend is the timing decorator over a cluster coordinator. It
// forwards engine.DaySplitting: the coordinator's SplitDays() == false
// must survive, or the engine would fan out once per day.
type coordBackend struct {
	coord *cluster.Coordinator
	clock *scanClock
}

var _ engine.DaySplitting = coordBackend{}

func (b coordBackend) Scan(ctx context.Context, q *storage.DataQuery) storage.Cursor {
	return b.clock.open(func() storage.Cursor { return b.coord.Scan(ctx, q) })
}

func (b coordBackend) SplitDays() bool { return b.coord.SplitDays() }

// wireClock counts the time spent blocked reading worker response bodies
// and the bytes read, through an http.Client handed to the coordinator.
type wireClock struct {
	nanos atomic.Int64
	bytes atomic.Int64
}

func (w *wireClock) client() *http.Client {
	return &http.Client{Transport: &timedTransport{
		base: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second},
		wire: w,
	}}
}

type timedTransport struct {
	base *http.Transport
	wire *wireClock
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		resp.Body = &timedBody{ReadCloser: resp.Body, wire: t.wire}
	}
	return resp, err
}

type timedBody struct {
	io.ReadCloser
	wire *wireClock
}

func (b *timedBody) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := b.ReadCloser.Read(p)
	b.wire.nanos.Add(int64(time.Since(start)))
	b.wire.bytes.Add(int64(n))
	return n, err
}
