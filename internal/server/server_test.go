package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

func newTestServer(t *testing.T) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	old := pollInterval
	pollInterval = 5 * time.Millisecond
	m := jobs.NewManager(jobs.Config{})
	ts := httptest.NewServer(New(m))
	t.Cleanup(func() {
		ts.Close()
		m.Close()
		pollInterval = old
	})
	return ts, m
}

// specJSON is a one-cell spec: makeidle on Verizon 3G over a diurnal
// study-3g cohort, each axis value labeled as the scheme and carrier
// names the summaries are keyed by.
func specJSON(users int, seed int64, duration string, shards int) string {
	return fmt.Sprintf(`{"seed": %d, "shards": %d,
		"schemes": [{"label": "makeidle", "policy": {"name": "makeidle"}}],
		"profiles": [{"label": "Verizon 3G", "name": "Verizon 3G"}],
		"cohorts": [{"name": "study-3g", "params": {"users": %d, "duration": %q}}]}`,
		seed, shards, users, duration)
}

func testSpecJSON(seed int64) string { return specJSON(3, seed, "10m", 4) }

func postJob(t *testing.T, ts *httptest.Server, body string) (jobs.Status, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getBody(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b, resp.StatusCode
}

func waitDone(t *testing.T, m *jobs.Manager, id string) {
	t.Helper()
	j, ok := m.Get(id)
	if !ok {
		t.Fatalf("job %s not registered", id)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
}

// TestSubmitPollResult drives the primary path: submit → 202 queued,
// status polls reach done, result served as JSON, CSV and text.
func TestSubmitPollResult(t *testing.T) {
	ts, m := newTestServer(t)
	st, code := postJob(t, ts, testSpecJSON(21))
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	if st.State != jobs.StateQueued && st.State != jobs.StateRunning {
		t.Fatalf("fresh job in state %s", st.State)
	}
	waitDone(t, m, st.ID)

	body, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("status returned %d: %s", code, body)
	}
	var got jobs.Status
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.State != jobs.StateDone || got.Progress.DoneJobs != 3 {
		t.Fatalf("status after done: %+v", got)
	}

	js, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK || !json.Valid(js) {
		t.Fatalf("JSON result: code %d, valid=%v", code, json.Valid(js))
	}
	csv, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result?format=csv")
	if code != http.StatusOK || !strings.HasPrefix(string(csv), "scheme,") {
		t.Fatalf("CSV result: code %d, body %q", code, csv)
	}
	text, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result?format=text")
	if code != http.StatusOK || !strings.Contains(string(text), "fleet summary") {
		t.Fatalf("text result: code %d, body %q", code, text)
	}
}

// TestCacheHitIsByteIdenticalOverHTTP is the end-to-end acceptance
// criterion: resubmitting an identical spec returns 200 with cache_hit
// and its result bytes equal the first response's exactly.
func TestCacheHitIsByteIdenticalOverHTTP(t *testing.T) {
	ts, m := newTestServer(t)
	cold, code := postJob(t, ts, testSpecJSON(22))
	if code != http.StatusAccepted {
		t.Fatalf("cold submit returned %d", code)
	}
	waitDone(t, m, cold.ID)
	coldJSON, code := getBody(t, ts.URL+"/v1/jobs/"+cold.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("cold result returned %d", code)
	}

	warm, code := postJob(t, ts, testSpecJSON(22))
	if code != http.StatusOK {
		t.Fatalf("warm submit returned %d, want 200 (cache hit)", code)
	}
	if !warm.CacheHit || warm.State != jobs.StateDone {
		t.Fatalf("warm submission not a completed cache hit: %+v", warm)
	}
	if warm.Fingerprint != cold.Fingerprint {
		t.Fatal("fingerprint changed between identical submissions")
	}
	warmJSON, code := getBody(t, ts.URL+"/v1/jobs/"+warm.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("warm result returned %d", code)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Fatalf("cache hit not byte-identical:\n%s\nvs\n%s", coldJSON, warmJSON)
	}
}

// TestStreamDeliversProgressAndTerminates reads the NDJSON stream of a
// running job: every line must parse, progress must be monotone, and the
// last line must carry the terminal state.
func TestStreamDeliversProgressAndTerminates(t *testing.T) {
	ts, _ := newTestServer(t)
	st, code := postJob(t, ts, specJSON(4, 23, "10m", 8))
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []StreamEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty stream")
	}
	last := events[len(events)-1]
	if last.State != jobs.StateDone {
		t.Fatalf("stream ended in state %s", last.State)
	}
	if last.Progress.DoneJobs != 4 {
		t.Fatalf("final progress %+v", last.Progress)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Progress.DoneShards < events[i-1].Progress.DoneShards {
			t.Fatalf("progress regressed at event %d: %+v after %+v",
				i, events[i].Progress, events[i-1].Progress)
		}
	}
}

// TestCancelOverHTTP cancels a queued/running job through DELETE and sees
// the canceled state; its result endpoint then answers 410.
func TestCancelOverHTTP(t *testing.T) {
	ts, m := newTestServer(t)
	// A bigger cohort so cancellation lands before completion most runs;
	// either way the lifecycle must stay coherent.
	st, code := postJob(t, ts, specJSON(64, 24, "2h", 64))
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel returned %d", resp.StatusCode)
	}
	waitDone(t, m, st.ID)
	body, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID)
	var got jobs.Status
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.State != jobs.StateCanceled && got.State != jobs.StateDone {
		t.Fatalf("after cancel: %+v", got)
	}
	if got.State == jobs.StateCanceled {
		if _, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result"); code != http.StatusGone {
			t.Fatalf("result of canceled job returned %d, want 410", code)
		}
	}
}

// TestErrorsAndValidation exercises the failure surfaces: bad specs,
// unknown jobs, unknown formats, result-before-done.
func TestErrorsAndValidation(t *testing.T) {
	ts, m := newTestServer(t)
	one := func(axis, value string) string {
		return fmt.Sprintf(`"%s": [%s]`, axis, value)
	}
	scheme := one("schemes", `{"policy": {"name": "makeidle"}}`)
	profile := one("profiles", `{"name": "verizon-3g"}`)
	cohort := one("cohorts", `{"name": "study-3g", "params": {"users": 2, "duration": "5m"}}`)
	spec := func(fields ...string) string { return "{" + strings.Join(fields, ", ") + "}" }
	for _, c := range []struct {
		body string
		code int
		want string // substring of the JSON error body
	}{
		{`{"users": 2, "seed": 1, "duration": "10m", "policy": "makeidle"}`,
			http.StatusBadRequest, `unknown field \"users\"`},
		{spec(`"seed": 1`), http.StatusBadRequest, "schemes axis is empty"},
		{spec(scheme, cohort), http.StatusBadRequest, "profiles axis is empty"},
		{spec(scheme, profile), http.StatusBadRequest, "cohorts axis is empty"},
		{spec(scheme, one("profiles", `{"name": "Nokia 1G"}`), cohort), http.StatusBadRequest, "Nokia 1G"},
		{spec(one("schemes", `{"policy": {"name": "warp-speed"}}`), profile, cohort),
			http.StatusBadRequest, "warp-speed"},
		{spec(scheme, profile, cohort, `"bogus_field": 1`), http.StatusBadRequest, `unknown field \"bogus_field\"`},
		{`not json at all`, http.StatusBadRequest, "bad spec"},
		{spec(one("schemes", `{"label": "`+strings.Repeat("x", maxSpecBytes)+`", "policy": {"name": "makeidle"}}`),
			profile, cohort), http.StatusRequestEntityTooLarge, "too large"},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.code || !strings.Contains(string(msg), c.want) {
			t.Errorf("spec %.80q returned %d %s, want %d naming %q", c.body, resp.StatusCode, msg, c.code, c.want)
		}
	}
	// Job routes live only under /v1.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(testSpecJSON(26)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /jobs returned %d, want 404", resp.StatusCode)
	}
	if _, code := getBody(t, ts.URL+"/v1/jobs/job-999999"); code != http.StatusNotFound {
		t.Fatalf("unknown job status returned %d", code)
	}
	if _, code := getBody(t, ts.URL+"/v1/jobs/job-999999/result"); code != http.StatusNotFound {
		t.Fatalf("unknown job result returned %d", code)
	}

	st, code := postJob(t, ts, testSpecJSON(25))
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	waitDone(t, m, st.ID)
	if _, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result?format=yaml"); code != http.StatusBadRequest {
		t.Fatalf("unknown format returned %d", code)
	}

	hb, code := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(hb), `"status"`) {
		t.Fatalf("healthz: %d %s", code, hb)
	}
}

// TestHealthzTraceCacheGauges pins the trace-cache health gauges: after a
// grid whose cells share a cohort, /healthz must report the cache's
// generations (misses), replays served from slabs (hits) and retained
// bytes — nonzero each — plus the eviction counter.
func TestHealthzTraceCacheGauges(t *testing.T) {
	ts, m := newTestServer(t)
	spec := `{"seed": 31, "shards": 2,
		"schemes": [{"policy": {"name": "makeidle"}},
		            {"policy": {"name": "fixedtail", "params": {"wait": "2s"}}}],
		"profiles": [{"name": "verizon-3g"}],
		"cohorts": [{"name": "study-3g", "params": {"users": 2, "duration": "2m"}}]}`
	st, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	waitDone(t, m, st.ID)

	hb, code := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, hb)
	}
	var health map[string]any
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatalf("healthz body: %v\n%s", err, hb)
	}
	num := func(key string) float64 {
		t.Helper()
		v, ok := health[key].(float64)
		if !ok {
			t.Fatalf("healthz missing numeric %q:\n%s", key, hb)
		}
		return v
	}
	// 2 cells × 2 users consult the cache once per job: one generation per
	// user, the rest replay from the retained slabs.
	if got := num("trace_cache_misses"); got != 2 {
		t.Fatalf("trace_cache_misses = %v, want 2 (one generation per user)", got)
	}
	if got := num("trace_cache_hits"); got != 2 {
		t.Fatalf("trace_cache_hits = %v, want 2", got)
	}
	if got := num("trace_cache_bytes"); got <= 0 {
		t.Fatalf("trace_cache_bytes = %v, want > 0", got)
	}
	if got := num("trace_cache_evictions"); got != 0 {
		t.Fatalf("trace_cache_evictions = %v, want 0", got)
	}
}
