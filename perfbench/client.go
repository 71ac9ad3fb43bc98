package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// newHTTPClient returns a client holding at most conns connections.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}}
}

// queryReply is the part of aiqld's /query reply the benchmark checks.
type queryReply struct {
	Rows         [][]string `json:"rows"`
	RowCount     int        `json:"row_count"`
	DataQueries  int        `json:"data_queries"`
	PlanCached   bool       `json:"plan_cached"`
	ResultCached bool       `json:"result_cached"`
	ElapsedMs    float64    `json:"elapsed_ms"`
}

// querySample is one query as the client saw it.
type querySample struct {
	start    time.Time
	latency  time.Duration
	ok       bool // 200 and the oracle's answer
	mismatch bool // 200 but a different answer
	bytes    int
	reply    queryReply
}

type queryBody struct {
	Query string `json:"query"`
}

// postQuery sends one query and times it until the whole reply has been
// read; decoding and the oracle check happen after the clock stops.
func postQuery(c *http.Client, url string, q querySpec) querySample {
	body, _ := json.Marshal(queryBody{Query: q.src})
	s := querySample{start: time.Now()}
	resp, err := c.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		s.latency = time.Since(s.start)
		return s
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.latency = time.Since(s.start)
	s.bytes = len(raw)
	if err != nil || resp.StatusCode != http.StatusOK {
		return s
	}
	if err := json.Unmarshal(raw, &s.reply); err != nil {
		return s
	}
	got := answer{digest: digestRows(s.reply.Rows), rows: s.reply.RowCount, dataQueries: s.reply.DataQueries}
	s.ok = got == q.want
	s.mismatch = !s.ok
	return s
}

// runQueryClients runs n closed-loop clients that share one cursor into
// seq until stop; samples started before measureFrom are warm-up.
func runQueryClients(c *http.Client, url string, n int, seq []querySpec, measureFrom, stop time.Time) (measured []querySample) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []querySample
			for time.Now().Before(stop) {
				q := seq[int(next.Add(1)-1)%len(seq)]
				s := postQuery(c, url, q)
				if !s.start.Before(measureFrom) {
					mine = append(mine, s)
				}
			}
			mu.Lock()
			measured = append(measured, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return measured
}

// ingestSample is one /ingest batch: ack is timed from when the batch was
// due, late is how far behind schedule it was sent.
type ingestSample struct {
	ack, late time.Duration
	ok        bool
}

// postIngest sends one batch and checks the acknowledged event count.
func postIngest(c *http.Client, url string, b batch) bool {
	resp, err := c.Post(url+"/ingest", "application/x-ndjson", bytes.NewReader(b.body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var r struct {
		Events int `json:"events"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&r) != nil {
		return false
	}
	return r.Events == b.events
}

// loadHistory posts the batches in order, each after the previous one was
// acknowledged (closed loop), and returns the load's wall time.
func loadHistory(c *http.Client, url string, batches []batch) (time.Duration, []ingestSample, error) {
	start := time.Now()
	samples := make([]ingestSample, 0, len(batches))
	for i, b := range batches {
		t := time.Now()
		if !postIngest(c, url, b) {
			return 0, nil, fmt.Errorf("history batch %d was not acknowledged", i)
		}
		samples = append(samples, ingestSample{ack: time.Since(t), ok: true})
	}
	return time.Since(start), samples, nil
}

// runIngester posts batches open loop: batch i is due at start+i*every,
// sent when due or, if the previous one is still in flight, as soon as it
// returns. It stops at the first batch due at or after stop.
func runIngester(c *http.Client, url string, batches []batch, start, stop time.Time, every time.Duration) []ingestSample {
	var out []ingestSample
	for i, b := range batches {
		due := start.Add(time.Duration(i) * every)
		if !due.Before(stop) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		ok := postIngest(c, url, b)
		out = append(out, ingestSample{ack: time.Since(due), late: sent.Sub(due), ok: ok})
	}
	return out
}

// getJSON fetches url into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, msg)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// postJSON posts in as JSON and requires a 200.
func postJSON(c *http.Client, url string, in any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, msg)
	}
	return nil
}
