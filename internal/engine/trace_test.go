package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/lang"
	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/omega"
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

// poisonFormula is a formula whose rendering panics, so any core that
// keys or labels it panics inside the envelope of the entry running it.
type poisonFormula struct{ ltl.Formula }

func (poisonFormula) String() string { panic("poisoned formula") }

// entryCase drives one exported engine entry point that opens a request
// envelope: call is a well-formed request, poison one that panics inside
// the envelope.
type entryCase struct {
	op           string
	call, poison func(context.Context, *engine.Engine) error
}

// entryCases builds its operands up front, so a trace taken around call
// holds the request's spans only.
func entryCases() []entryCase {
	safeA, safeB := lang.A(lang.MustRegex("a*", ab)), lang.A(lang.MustRegex("a^+", ab))
	rec := lang.R(lang.MustRegex(".*b", ab))
	response := ltl.MustParse("G (req -> F ack)")
	batch := func(ctx context.Context, eng *engine.Engine) error {
		return eng.Batch(ctx, []engine.Request{{Formula: response}})[0].Err
	}
	return []entryCase{
		{
			op: "Check",
			call: func(ctx context.Context, eng *engine.Engine) error {
				_, err := contains(ctx, eng, safeA, safeB)
				return err
			},
			poison: func(ctx context.Context, eng *engine.Engine) error {
				_, err := eng.Check(ctx, engine.CheckRequest{Kind: engine.CheckEmptiness, LeftFormula: poisonFormula{}, Props: []string{"p"}})
				return err
			},
		},
		{
			op: "PlanAutomaton",
			call: func(ctx context.Context, eng *engine.Engine) error {
				_, _, err := eng.PlanAutomaton(ctx, rec)
				return err
			},
			poison: func(ctx context.Context, eng *engine.Engine) error {
				_, _, err := eng.PlanAutomaton(ctx, (*omega.Automaton)(nil))
				return err
			},
		},
		{
			op: "ClassifyAutomaton",
			call: func(ctx context.Context, eng *engine.Engine) error {
				_, err := eng.ClassifyAutomaton(ctx, rec)
				return err
			},
			poison: func(ctx context.Context, eng *engine.Engine) error {
				_, err := eng.ClassifyAutomaton(ctx, (*omega.Automaton)(nil))
				return err
			},
		},
		{
			op: "CompileFormula",
			call: func(ctx context.Context, eng *engine.Engine) error {
				_, err := eng.CompileFormula(ctx, response, nil)
				return err
			},
			poison: func(ctx context.Context, eng *engine.Engine) error {
				_, err := eng.CompileFormula(ctx, poisonFormula{}, []string{"p"})
				return err
			},
		},
		{
			op: "ClassifyFormula",
			call: func(ctx context.Context, eng *engine.Engine) error {
				_, err := eng.ClassifyFormula(ctx, response, nil)
				return err
			},
			poison: func(ctx context.Context, eng *engine.Engine) error {
				_, err := eng.ClassifyFormula(ctx, poisonFormula{}, []string{"p"})
				return err
			},
		},
		{
			op:   "Batch.item",
			call: batch,
			poison: func(ctx context.Context, eng *engine.Engine) error {
				defer fault.InjectPanic(fault.SiteEngineBatch, 1, "poisoned item")()
				return batch(ctx, eng)
			},
		},
	}
}

// TestOneEnvelopePerEntry pins the single request envelope on every
// exported entry point: a traced call yields exactly one engine.request
// span carrying the entry's op and the request's budget spend, every
// span below it carries the request's trace id, and a panic inside the
// entry surfaces as an *InternalError naming that entry.
func TestOneEnvelopePerEntry(t *testing.T) {
	defer fault.Reset()
	for _, tc := range entryCases() {
		t.Run(tc.op, func(t *testing.T) {
			var buf bytes.Buffer
			j := obs.NewJSONLSink(&buf)
			obs.Attach(j)
			eng := engine.New(engine.WithStateBudget(1<<40), engine.WithStepBudget(1<<40))
			err := tc.call(context.Background(), eng)
			obs.Detach()
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			var reqs []map[string]any
			ids := map[string]bool{}
			for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
				var rec struct {
					Record, Name string
					TraceID      string `json:"trace_id"`
					Attrs        map[string]any
				}
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("bad JSONL line %q: %v", line, err)
				}
				if rec.Record != "span" {
					continue
				}
				ids[rec.TraceID] = true
				if rec.Name == "engine.request" {
					reqs = append(reqs, rec.Attrs)
				}
			}
			if len(reqs) != 1 {
				t.Fatalf("got %d engine.request spans, want 1", len(reqs))
			}
			if reqs[0]["op"] != tc.op {
				t.Errorf("engine.request op = %v, want %s", reqs[0]["op"], tc.op)
			}
			states, okStates := reqs[0]["budget.states"].(float64)
			steps, okSteps := reqs[0]["budget.steps"].(float64)
			if !okStates || !okSteps || states+steps <= 0 {
				t.Errorf("engine.request span carries no budget spend: %v", reqs[0])
			}
			if len(ids) != 1 || ids[""] {
				t.Errorf("request spans carry trace ids %v, want one", ids)
			}

			err = tc.poison(context.Background(), engine.New())
			var ie *engine.InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("poisoned call should surface *InternalError, got %v", err)
			}
			if ie.Op != tc.op {
				t.Fatalf("InternalError.Op = %q, want %s", ie.Op, tc.op)
			}
		})
	}
}

// checkTrees checks that every collected root is a span named root whose
// whole tree carries the root's trace id, that no further root-named span
// nests inside a tree, and returns the roots.
func checkTrees(t *testing.T, c *obs.Collector, root string) []*obs.Span {
	t.Helper()
	roots := c.Roots()
	for _, r := range roots {
		if r.Name != root {
			t.Errorf("root span %q, want %s", r.Name, root)
		}
		if r.TraceID == "" {
			t.Errorf("root %q has no trace id", r.Name)
		}
		r.Walk(func(sp *obs.Span, depth int) {
			if depth > 0 && sp.Name == root {
				t.Errorf("%s nested at depth %d of trace %s", root, depth, r.TraceID)
			}
			if sp.TraceID != r.TraceID {
				t.Errorf("span %q carries trace id %q inside trace %q", sp.Name, sp.TraceID, r.TraceID)
			}
		})
	}
	return roots
}

// TestConcurrentClassifyTraces: concurrent traced requests each build
// their own tree — one engine.request root per call, never nested in
// another request's tree, every span carrying its own request's id —
// whether the engine's fan-out runs on one worker or several.
func TestConcurrentClassifyTraces(t *testing.T) {
	const calls = 16
	for _, workers := range []int{1, 2} {
		c := &obs.Collector{}
		obs.Attach(c)
		eng := engine.New(engine.WithParallelism(workers))
		var wg sync.WaitGroup
		for i := 0; i < calls; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				f := ltl.MustParse(fmt.Sprintf("G (p%d -> F q) & F G (r | O p%d)", i, i))
				if _, err := eng.ClassifyFormula(context.Background(), f, nil); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		obs.Detach()
		roots := checkTrees(t, c, "engine.request")
		ids := map[obs.TraceID]bool{}
		for _, r := range roots {
			ids[r.TraceID] = true
		}
		if len(roots) != calls || len(ids) != calls {
			t.Fatalf("workers=%d: %d roots with %d distinct trace ids, want %d each",
				workers, len(roots), len(ids), calls)
		}
	}
}

// TestConcurrentClauseSpansNest: the clause compilations of one formula
// fan out to the worker pool, and each clause's compile.past2dfa spans
// nest under the request's compile.formula, never under a sibling
// clause's compile.past2dfa.
func TestConcurrentClauseSpansNest(t *testing.T) {
	f := ltl.MustParse("G (p -> Y q) & F (q & O p) & G F (p S q) & F G !(q S p)")
	if nf, err := core.Normalize(context.Background(), f); err != nil || len(nf.Clauses) != 4 {
		t.Fatalf("fixture has %d clauses (err %v), want 4", len(nf.Clauses), err)
	}
	for run := 0; run < 20; run++ {
		c := &obs.Collector{}
		obs.Attach(c)
		_, err := engine.New(engine.WithParallelism(4)).CompileFormula(context.Background(), f, nil)
		obs.Detach()
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		var path []string
		for _, r := range checkTrees(t, c, "engine.request") {
			r.Walk(func(sp *obs.Span, depth int) {
				path = append(path[:depth], sp.Name)
				if sp.Name != "compile.past2dfa" {
					return
				}
				seen++
				if !slices.Contains(path[:depth], "compile.formula") || slices.Contains(path[:depth], "compile.past2dfa") {
					t.Fatalf("run %d: compile.past2dfa under %v", run, path[:depth])
				}
			})
		}
		if seen == 0 {
			t.Fatalf("run %d: no compile.past2dfa span", run)
		}
	}
}

// TestBatchIsOneTrace: a traced Batch is one trace — a single
// engine.batch root whose id every item's engine.request envelope, and
// every span below it, carries.
func TestBatchIsOneTrace(t *testing.T) {
	c := &obs.Collector{}
	obs.Attach(c)
	reqs := []engine.Request{
		{Formula: ltl.MustParse("G p")},
		{Formula: ltl.MustParse("F q")},
		{Formula: ltl.MustParse("G F r")},
	}
	res := engine.New(engine.WithParallelism(2)).Batch(context.Background(), reqs)
	obs.Detach()
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	roots := checkTrees(t, c, "engine.batch")
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want one engine.batch", len(roots))
	}
	var items int
	for _, ch := range roots[0].Children {
		if ch.Name == "engine.request" {
			items++
		}
	}
	if items != len(reqs) {
		t.Fatalf("engine.batch has %d engine.request children, want %d", items, len(reqs))
	}
}
