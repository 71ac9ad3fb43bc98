package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"aiql/internal/obs"
	"aiql/internal/storage"
	"aiql/internal/trace"
	"aiql/internal/types"
)

// remoteCursor streams one worker's /scan response as a storage.Cursor.
// The HTTP request is issued immediately on creation (on a goroutine, so
// sibling workers stream in parallel from the moment the coordinator's Scan
// returns); Next decodes records on the consumer's goroutine with the
// trace package's JSON-lines decoder, the one /ingest uses, and TCP flow
// control provides the backpressure bounded channels provide locally.
//
// A stream that ends without the worker's ScanRowsTrailer — the connection
// died, the worker crashed mid-scan — surfaces as an error, so a truncated
// result can never pass for a complete one.
type remoteCursor struct {
	ctx    context.Context
	cancel context.CancelFunc
	worker string
	// shard is the logical shard this cursor gathers (reported in worker
	// errors); workerIdx is the index of the worker actually contacted.
	// They differ when a failover sends a shard's query to its replica.
	shard     int
	workerIdx int

	respCh chan respOrErr
	resp   *http.Response
	dec    *trace.Decoder

	// entities holds the stream's entity records: events reference them
	// by id. ent and ev are the decoder's scratch records.
	entities map[types.EntityID]*types.Entity
	ent      types.Entity
	ev       types.Event

	rows int
	// span is the worker leg's trace span (nil when untraced); ended with
	// the leg's row count when the cursor finishes.
	span *obs.Span
	err  error
	done bool
}

type respOrErr struct {
	resp *http.Response
	err  error
}

// newRemoteCursor starts a /scan request against one worker. ctx should be
// the coordinator's per-scan context: canceling it aborts the request (or
// the in-flight body read) promptly.
func newRemoteCursor(ctx context.Context, client *http.Client, worker string, shard, workerIdx int, body []byte) *remoteCursor {
	cctx, cancel := context.WithCancel(ctx)
	c := &remoteCursor{
		ctx:       cctx,
		cancel:    cancel,
		worker:    worker,
		shard:     shard,
		workerIdx: workerIdx,
		respCh:    make(chan respOrErr, 1),
		entities:  make(map[types.EntityID]*types.Entity),
	}
	// Each leg gets its own child span under the scan's gather span, and the
	// request carries the trace ID so the worker's logs and spans share it.
	c.span = obs.SpanFromContext(ctx).Child("worker")
	c.span.Set("worker", worker)
	c.span.Set("shard", strconv.Itoa(shard))
	traceID := obs.TraceID(ctx)
	// The goroutine sends on its own captured copy of the channel: the
	// consumer side nils c.respCh when it is done with it, and the send
	// must not observe that write. The buffer of 1 lets the goroutine exit
	// without a reader; a response arriving after the consumer gave up is
	// closed by the transport when the canceled request context unwinds.
	ch := c.respCh
	go func() {
		req, err := http.NewRequestWithContext(cctx, http.MethodPost, worker+"/scan", bytes.NewReader(body))
		if err != nil {
			ch <- respOrErr{err: err}
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", "application/x-ndjson")
		if traceID != "" {
			req.Header.Set(obs.TraceIDHeader, traceID)
		}
		resp, err := client.Do(req)
		ch <- respOrErr{resp: resp, err: err}
	}()
	return c
}

// connect waits for the response headers and validates the status line
// and the shard header.
func (c *remoteCursor) connect() error {
	select {
	case re := <-c.respCh:
		c.respCh = nil
		if re.err != nil {
			return re.err
		}
		c.resp = re.resp
		if re.resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(re.resp.Body, 1024))
			return fmt.Errorf("scan returned %s: %s", re.resp.Status, bytes.TrimSpace(msg))
		}
		shard, err := strconv.Atoi(re.resp.Header.Get(ShardHeader))
		if err != nil {
			return fmt.Errorf("missing or malformed %s header: not a worker /scan stream", ShardHeader)
		}
		// A worker that knows its own index (-shard flag) must be the
		// worker the coordinator contacted: answering from the wrong slot
		// means the -workers order no longer matches the order the data
		// was placed in, and every pruned query would be silently wrong.
		// The check is against the contacted worker's index, not the
		// logical shard — under replication a replica legitimately answers
		// for a shard it is not. Workers without a shard label (-1) skip
		// the check.
		if shard >= 0 && shard != c.workerIdx {
			return fmt.Errorf("worker identifies as shard %d, coordinator routed shard %d here (is -workers in placement order?)", shard, c.workerIdx)
		}
		c.dec = trace.NewDecoder(re.resp.Body)
		return nil
	case <-c.ctx.Done():
		return c.ctx.Err()
	}
}

func (c *remoteCursor) Next(batch []storage.Match) int {
	if c.done || len(batch) == 0 {
		return 0
	}
	if c.dec == nil {
		if err := c.connect(); err != nil {
			c.fail(err)
			return 0
		}
	}
	n := 0
	for n < len(batch) {
		kind, err := c.dec.Next(&c.ent, &c.ev)
		if errors.Is(err, io.EOF) {
			if err := c.trailer(); err != nil {
				c.fail(err)
				return 0
			}
			c.finish(nil)
			return n
		}
		if err != nil {
			c.fail(err)
			return 0
		}
		if kind == trace.KindEntity {
			e := c.ent
			c.entities[e.ID] = &e
			continue
		}
		ev := c.ev
		subj, obj := c.entities[ev.Subject], c.entities[ev.Object]
		if subj == nil || obj == nil {
			c.fail(fmt.Errorf("event %d references an entity not sent on this stream (subject=%d object=%d)", ev.ID, ev.Subject, ev.Object))
			return 0
		}
		batch[n] = storage.Match{Event: &ev, Subj: subj, Obj: obj}
		n++
		c.rows++
	}
	return n
}

// trailer judges a body that ended cleanly by the trailers the worker
// sent after it.
func (c *remoteCursor) trailer() error {
	if msg := c.resp.Trailer.Get(ScanErrorTrailer); msg != "" {
		return fmt.Errorf("worker scan failed: %s", msg)
	}
	v := c.resp.Trailer.Get(ScanRowsTrailer)
	if v == "" {
		// No rows trailer: the worker died mid-stream.
		return fmt.Errorf("stream truncated after %d rows: %w", c.rows, io.ErrUnexpectedEOF)
	}
	if rows, err := strconv.Atoi(v); err != nil || rows != c.rows {
		return fmt.Errorf("trailer says %s rows, stream carried %d", v, c.rows)
	}
	return nil
}

func (c *remoteCursor) Err() error { return c.err }

func (c *remoteCursor) Close() { c.finish(nil) }

// fail records an error, preferring the context's own error when the
// cursor was canceled — a body read that died because the caller hung up
// is a cancellation, not a worker failure.
func (c *remoteCursor) fail(err error) {
	if cerr := c.ctx.Err(); cerr != nil {
		c.finish(cerr)
		return
	}
	c.finish(&WorkerError{Worker: c.worker, Shard: c.shard, Err: err})
}

func (c *remoteCursor) finish(err error) {
	if c.done {
		return
	}
	c.done = true
	if err != nil && c.err == nil {
		c.err = err
	}
	c.span.Add("rows", int64(c.rows))
	if c.err != nil {
		c.span.Set("error", c.err.Error())
	}
	c.span.End()
	c.cancel()
	if c.resp != nil {
		c.resp.Body.Close()
		c.resp = nil
	}
	if c.respCh != nil {
		// The request goroutine may still be in flight; the cancel above
		// aborts it, and the buffered channel lets it exit without a reader.
		// Drain opportunistically to close the body if it already arrived.
		select {
		case re := <-c.respCh:
			if re.resp != nil {
				re.resp.Body.Close()
			}
		default:
		}
		c.respCh = nil
	}
	c.dec = nil
	c.entities = nil
}
