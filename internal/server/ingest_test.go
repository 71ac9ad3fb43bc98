package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"aiql/internal/gen"
	"aiql/internal/server"
)

// scpReadLines returns n valid wire-format lines: one new process entity
// and n-1 reads of the test dataset's key file by it.
func scpReadLines(n int) []string {
	day := gen.DayStart(1)
	lines := []string{fmt.Sprintf(
		`{"kind":"entity","id":3000,"type":"proc","agentid":%d,"attrs":{"exe_name":"/usr/bin/scp"}}`, testHost)}
	for i := 1; i < n; i++ {
		lines = append(lines, fmt.Sprintf(
			`{"kind":"event","id":%d,"agentid":%d,"subject":3000,"object":3,"op":"read","start":%d,"end":%d,"seq":%d}`,
			9100+i, testHost, day+6000+int64(i), day+6001+int64(i), 100+i))
	}
	return lines
}

// TestIngestRejectsBadBatches checks /ingest's error statuses and that a
// rejected batch is not partially applied: the store's generation and
// event count stay as they were, even when valid lines precede the fault.
func TestIngestRejectsBadBatches(t *testing.T) {
	const limit = 1024
	valid := scpReadLines(4)
	oversized := strings.Join(scpReadLines(20), "\n") + "\n"
	if len(oversized) <= limit {
		t.Fatalf("oversized body is only %d bytes", len(oversized))
	}
	cases := []struct {
		name   string
		body   string
		status int
		want   string
	}{
		{"oversized body", oversized, http.StatusRequestEntityTooLarge, "too large"},
		{"oversized body cut mid-line", oversized[:len(oversized)-1], http.StatusRequestEntityTooLarge, "too large"},
		{"malformed line", strings.Join(valid, "\n") + "\n{\"kind\":\"event\",\"op\":\n", http.StatusBadRequest, "line 5:"},
		{"unknown op", strings.Join(valid, "\n") + "\n" + `{"kind":"event","id":9999,"op":"frobnicate"}` + "\n",
			http.StatusBadRequest, `line 5: unknown operation "frobnicate"`},
		{"type error", strings.Join(valid[:2], "\n") + "\n" + `{"kind":"event","op":"read","start":1.5}` + "\n",
			http.StatusBadRequest, "line 3:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, st := newTestServer(t, server.Options{MaxIngestBytes: limit})
			gen0, events0 := st.Generation(), st.EventCount()
			resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, body.Error, tc.status)
			}
			if !strings.Contains(body.Error, tc.want) {
				t.Errorf("error %q does not contain %q", body.Error, tc.want)
			}
			if st.Generation() != gen0 || st.EventCount() != events0 {
				t.Errorf("rejected batch changed the store: generation %d -> %d, events %d -> %d",
					gen0, st.Generation(), events0, st.EventCount())
			}
		})
	}

	// The same limit admits a batch that fits.
	ts, st := newTestServer(t, server.Options{MaxIngestBytes: limit})
	events0 := st.EventCount()
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(strings.Join(valid, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.EventCount() != events0+len(valid)-1 {
		t.Fatalf("valid batch: status %d, events %d -> %d", resp.StatusCode, events0, st.EventCount())
	}
}
