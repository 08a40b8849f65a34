package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/ltl"
	"repro/internal/obs"
)

// TestRequestEnvelopeStampsTraceID is the end-to-end check for
// request-scoped tracing at the engine boundary: with a JSONL sink
// attached, one classify request yields exactly one engine.request root
// span, and every span record of the request carries the same trace id.
func TestRequestEnvelopeStampsTraceID(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJSONLSink(&buf)
	obs.Attach(j)
	defer obs.Detach()

	eng := engine.New()
	if _, err := eng.ClassifyFormula(context.Background(), ltl.MustParse("G F p"), nil); err != nil {
		t.Fatal(err)
	}
	obs.Detach()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var roots int
	ids := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Record  string `json:"record"`
			Name    string `json:"name"`
			TraceID string `json:"trace_id"`
			Attrs   map[string]any
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec.Record != "span" {
			continue
		}
		if rec.TraceID == "" {
			t.Fatalf("span %q has no trace_id", rec.Name)
		}
		ids[rec.TraceID] = true
		if rec.Name == "engine.request" {
			roots++
			if rec.Attrs["op"] != "ClassifyFormula" {
				t.Errorf("engine.request op = %v", rec.Attrs["op"])
			}
		}
	}
	if roots != 1 {
		t.Fatalf("got %d engine.request spans, want 1 (layered entry points must not nest envelopes)", roots)
	}
	if len(ids) != 1 {
		t.Fatalf("spans carry %d distinct trace ids, want 1", len(ids))
	}
}

// TestCallerTraceIDWins: a trace id already on the context (the daemon's
// per-HTTP-request id) must be used rather than a fresh mint.
func TestCallerTraceIDWins(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJSONLSink(&buf)
	obs.Attach(j)
	defer obs.Detach()

	ctx := obs.WithTraceID(context.Background(), obs.TraceID("deadbeefcafef00d"))
	eng := engine.New()
	if _, err := eng.ClassifyFormula(ctx, ltl.MustParse("F p"), nil); err != nil {
		t.Fatal(err)
	}
	obs.Detach()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"trace_id":"deadbeefcafef00d"`) {
		t.Fatal("caller-supplied trace id not propagated into span records")
	}
}

// TestEnvelopeFreeWhenOff: with no sink attached and no trace id on the
// context, entry points must not allocate envelope state. It runs with the
// worker pool pinned to 1 and to 2, so the bound holds on any host.
func TestEnvelopeFreeWhenOff(t *testing.T) {
	obs.Detach()
	for _, workers := range []int{1, 2} {
		eng := engine.New(engine.WithParallelism(workers))
		ctx := context.Background()
		if _, err := eng.ClassifyFormula(ctx, ltl.MustParse("G p"), nil); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := eng.ClassifyFormula(ctx, ltl.MustParse("G p"), nil); err != nil {
				t.Fatal(err)
			}
		})
		// 13 allocs is the cached-classify baseline (budget context, capture
		// closure, key build) measured before the envelope existed; a skipped
		// envelope must not add to it.
		if allocs > 13 {
			t.Errorf("workers=%d: disabled-path allocs = %.1f, want ≤ 13 (envelope must be free when off)", workers, allocs)
		}
	}
}
