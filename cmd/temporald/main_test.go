package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	temporal "repro"
	"repro/internal/obs"
	"repro/internal/obshttp"
)

// newTestMux assembles the daemon's full surface the way run() does.
func newTestMux(t *testing.T, srv *server) *http.ServeMux {
	t.Helper()
	mux := obshttp.NewMux(nil)
	mux.Handle("/classify", srv)
	return mux
}

func postClassify(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/classify", strings.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var rec map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &rec); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, rr.Body.String())
	}
	return rr, rec
}

func TestClassifyEndpoint(t *testing.T) {
	srv := newServer(nil, time.Minute, 0)
	mux := newTestMux(t, srv)

	rr, rec := postClassify(t, mux, `{"formula":"G F p"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("POST /classify = %d: %v", rr.Code, rec)
	}
	if rec["class"] != "recurrence" {
		t.Errorf("class = %v, want recurrence", rec["class"])
	}
	id, _ := rec["trace_id"].(string)
	if len(id) != 16 {
		t.Errorf("trace_id = %q, want 16 hex digits", id)
	}
	if rr.Header().Get("X-Trace-Id") != id {
		t.Errorf("X-Trace-Id header %q != body trace_id %q", rr.Header().Get("X-Trace-Id"), id)
	}
	if rec["states"].(float64) <= 0 {
		t.Errorf("states = %v", rec["states"])
	}

	// A second request must mint a different id.
	_, rec2 := postClassify(t, mux, `{"formula":"F p"}`)
	if rec2["trace_id"] == id {
		t.Error("two requests shared a trace id")
	}
	if rec2["class"] != "guarantee" {
		t.Errorf("class = %v, want guarantee", rec2["class"])
	}
}

func TestClassifyErrors(t *testing.T) {
	srv := newServer(nil, time.Minute, 0)
	mux := newTestMux(t, srv)

	get := httptest.NewRequest(http.MethodGet, "/classify", nil)
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, get)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /classify = %d, want 405", rr.Code)
	}

	for body, want := range map[string]int{
		`{"formula":"G F (`: http.StatusBadRequest, // parse error
		`not json`:          http.StatusBadRequest,
	} {
		rr, rec := postClassify(t, mux, body)
		if rr.Code != want {
			t.Errorf("POST %q = %d, want %d", body, rr.Code, want)
		}
		if rec["error"] == "" || rec["trace_id"] == "" {
			t.Errorf("error body must carry error and trace_id: %v", rec)
		}
	}
}

func TestClassifyBudgetExceededIs503(t *testing.T) {
	srv := newServer(nil, time.Minute, 1)
	mux := newTestMux(t, srv)
	rr, rec := postClassify(t, mux, `{"formula":"(G F a -> G F b) & (G F c -> G F d) & (G F e -> G F f)"}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("budget-capped classify = %d (%v), want 503", rr.Code, rec)
	}
	if obs.Default().Counter("budget.exceeded").Value() == 0 {
		t.Error("budget.exceeded counter did not move")
	}
}

// TestMetricsExposesEngineCounters is the acceptance check: after a
// classify request, the daemon's /metrics output is Prometheus text
// containing the engine, lazy-materialization, budget and panic-recovery
// families.
func TestMetricsExposesEngineCounters(t *testing.T) {
	srv := newServer(nil, time.Minute, 0)
	mux := newTestMux(t, srv)
	if rr, rec := postClassify(t, mux, `{"formula":"G p | F q"}`); rr.Code != http.StatusOK {
		t.Fatalf("classify = %d: %v", rr.Code, rec)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rr.Code)
	}
	body := rr.Body.String()
	for _, name := range []string{
		"engine_cache_hits",
		"engine_cache_misses",
		"engine_classify_calls",
		"omega_lazy_states_materialized",
		"budget_exceeded",
		"engine_panics_recovered",
		"temporald_classify_latency_us_bucket",
		`temporald_responses{code="200"}`,
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	// Parseability: every non-comment line is "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("unparseable exposition line %q", line)
		}
	}
}

// TestClassifyTraceJSONL: with a JSONL sink attached, concurrent
// classify requests leave span records stamped with their responses'
// trace ids. Split at its depth-0 records, the trace is one tree per
// engine entry a request ran: every root is an engine.request, every
// record carries its root's id, and each response's X-Trace-Id owns
// exactly three roots (compile, classify, plan).
func TestClassifyTraceJSONL(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJSONLSink(&buf)
	obs.Attach(j)
	defer obs.Detach()

	srv := newServer(nil, time.Minute, 0)
	mux := newTestMux(t, srv)
	const posts = 8
	rrs := make([]*httptest.ResponseRecorder, posts)
	var wg sync.WaitGroup
	for i := range rrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"formula":"p%d U q"}`, i)
			rrs[i] = httptest.NewRecorder()
			mux.ServeHTTP(rrs[i], httptest.NewRequest(http.MethodPost, "/classify", strings.NewReader(body)))
		}(i)
	}
	wg.Wait()
	obs.Detach()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	roots := map[string]int{}
	var rootID string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Record  string `json:"record"`
			Name    string `json:"name"`
			TraceID string `json:"trace_id"`
			Depth   int    `json:"depth"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		if rec.Record != "span" {
			continue
		}
		if rec.Depth == 0 {
			if rec.Name != "engine.request" {
				t.Errorf("root span %q, want engine.request", rec.Name)
			}
			rootID = rec.TraceID
			roots[rootID]++
		}
		if rec.TraceID != rootID {
			t.Errorf("span %q carries trace id %q inside trace %q", rec.Name, rec.TraceID, rootID)
		}
	}
	for i, rr := range rrs {
		if rr.Code != http.StatusOK {
			t.Fatalf("POST %d = %d: %s", i, rr.Code, rr.Body.String())
		}
		id := rr.Header().Get("X-Trace-Id")
		if roots[id] != 3 {
			t.Errorf("trace id %s has %d engine.request roots, want 3", id, roots[id])
		}
	}
}

func TestStatusFor(t *testing.T) {
	if got := statusFor(fmt.Errorf("boom")); got != http.StatusBadRequest {
		t.Errorf("generic error → %d, want 400", got)
	}
}

func TestProbeAgainstLiveMux(t *testing.T) {
	ts := httptest.NewServer(newTestMux(t, newServer(nil, time.Minute, 0)))
	defer ts.Close()
	var out bytes.Buffer
	if err := runProbe(strings.TrimPrefix(ts.URL, "http://"), "", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"status":"ok"`) || !strings.Contains(out.String(), "engine_cache_hits") {
		t.Errorf("probe output incomplete:\n%.300s", out.String())
	}
}

// TestClassifyReportsPlanAndBudget: responses carry the planner tier for
// the compiled requirement plus the request's budget spend when the
// daemon runs governed.
func TestClassifyReportsPlanAndBudget(t *testing.T) {
	srv := newServer(nil, time.Minute, 10_000)
	mux := newTestMux(t, srv)

	rr, rec := postClassify(t, mux, `{"formula":"G !(c1 & c2)"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("classify = %d: %v", rr.Code, rec)
	}
	if rec["plan"] != "safety" {
		t.Errorf("plan = %v, want safety for an invariant", rec["plan"])
	}
	if reason, _ := rec["plan_reason"].(string); reason == "" {
		t.Error("plan_reason should explain the tier choice")
	}
	if spent, _ := rec["budget_states"].(float64); spent <= 0 {
		t.Errorf("budget_states = %v, want positive spend under -budget", rec["budget_states"])
	}

	// An ungoverned server omits the spend fields but still plans.
	free := newServer(nil, time.Minute, 0)
	_, rec = postClassify(t, newTestMux(t, free), `{"formula":"G F p"}`)
	if rec["plan"] != "recurrence" {
		t.Errorf("plan = %v, want recurrence for G F p", rec["plan"])
	}
	if _, present := rec["budget_states"]; present {
		t.Error("budget_states should be omitted when the daemon is unlimited")
	}
}

// TestWarmStartAcrossRestart is the daemon-level warm-start contract: a
// second "boot" of the serving engine against the same -store path
// answers the same request from disk, visible in /healthz (store
// records) and the store hit counters — the check.sh smoke in test
// form.
func TestWarmStartAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	opts := []temporal.EngineOption{temporal.WithPersistentStore(path)}

	boot1 := newServer(opts, time.Minute, 0)
	mux1 := newTestMux(t, boot1)
	if rr, rec := postClassify(t, mux1, `{"formula":"G (req -> F ack)"}`); rr.Code != http.StatusOK {
		t.Fatalf("boot1 classify = %d: %v", rr.Code, rec)
	}
	// The drain path: flush write-behind verdicts before "exit".
	if err := boot1.eng.Close(); err != nil {
		t.Fatal(err)
	}

	boot2 := newServer(opts, time.Minute, 0)
	mux2 := obshttp.NewMux(nil, boot2.storeHealth)
	mux2.Handle("/classify", boot2)
	rr, rec := postClassify(t, mux2, `{"formula":"G (req -> F ack)"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("boot2 classify = %d: %v", rr.Code, rec)
	}
	if rec["class"] != "recurrence" {
		t.Errorf("warm class = %v, want recurrence", rec["class"])
	}
	st := boot2.eng.StoreStats()
	if st.Hits == 0 {
		t.Fatalf("second boot served no disk-warm verdicts: %+v", st)
	}

	// /healthz must report the store's circuit state and record count.
	hreq := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	hrr := httptest.NewRecorder()
	mux2.ServeHTTP(hrr, hreq)
	var health map[string]any
	if err := json.Unmarshal(hrr.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["store_enabled"] != true {
		t.Errorf("healthz store_enabled = %v", health["store_enabled"])
	}
	if n, _ := health["store_records"].(float64); n <= 0 {
		t.Errorf("healthz store_records = %v, want > 0", health["store_records"])
	}
	if err := boot2.eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreHealthWithoutStore: a daemon booted without -store reports a
// disabled store rather than omitting the field.
func TestStoreHealthWithoutStore(t *testing.T) {
	srv := newServer(nil, time.Minute, 0)
	h := srv.storeHealth()
	if h["store_enabled"] != false {
		t.Errorf("store_enabled = %v, want false without -store", h["store_enabled"])
	}
}

// TestProbeClassify covers the -probe -classify client mode end to end
// against a live mux.
func TestProbeClassify(t *testing.T) {
	ts := httptest.NewServer(newTestMux(t, newServer(nil, time.Minute, 0)))
	defer ts.Close()
	var out bytes.Buffer
	if err := runProbe(strings.TrimPrefix(ts.URL, "http://"), "G F p", &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== /classify ==", `"class":"recurrence"`, `"status":"ok"`, "engine_cache_hits"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("probe output missing %q:\n%.400s", want, out.String())
		}
	}
	// A bad formula surfaces the server's diagnostic as an error.
	if err := runProbe(strings.TrimPrefix(ts.URL, "http://"), "G (p", &out); err == nil {
		t.Error("probe accepted a parse failure")
	}
}
