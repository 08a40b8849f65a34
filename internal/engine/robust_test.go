package engine_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/ltl"
)

// The fault-injection registry is process-global, so none of these tests
// call t.Parallel.

// TestBudgetExceededStates checks the tentpole contract: an engine with a
// state budget refuses a request whose constructions materialize more
// states, reporting the typed sentinel instead of running away.
func TestBudgetExceededStates(t *testing.T) {
	eng := engine.New(engine.WithStateBudget(1))
	_, err := eng.ClassifyFormula(context.Background(), ltl.MustParse("G (req -> F ack)"), nil)
	if err == nil {
		t.Fatal("state budget 1 should abort the compilation")
	}
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("error %v should match budget.ErrBudgetExceeded", err)
	}
	var ex *budget.ExceededError
	if !errors.As(err, &ex) {
		t.Fatalf("error %v should carry *budget.ExceededError detail", err)
	}
	if ex.Resource != "states" {
		t.Fatalf("resource %q, want states", ex.Resource)
	}
}

// TestBudgetExceededSteps exercises the step meter through the iterative
// analyses: a tiny step cap aborts classification of a sizable random
// automaton.
func TestBudgetExceededSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ab := alphabet.MustLetters("ab")
	a := gen.RandomStreett(rng, ab, 20, 2, 0.3, 0.5)
	eng := engine.New(engine.WithStepBudget(1))
	_, err := eng.ClassifyAutomaton(context.Background(), a)
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("step budget 1 should abort classification, got %v", err)
	}
}

// TestGenerousBudgetSucceeds checks the other half of the contract:
// budgets sized for legitimate inputs never trip, and the result equals
// the un-governed one.
func TestGenerousBudgetSucceeds(t *testing.T) {
	f := ltl.MustParse("G (req -> F ack)")
	want, err := engine.New().ClassifyFormula(context.Background(), f, nil)
	if err != nil {
		t.Fatalf("un-budgeted classify: %v", err)
	}
	eng := engine.New(engine.WithStateBudget(10_000), engine.WithStepBudget(640_000))
	got, err := eng.ClassifyFormula(context.Background(), f, nil)
	if err != nil {
		t.Fatalf("budgeted classify: %v", err)
	}
	if got != want {
		t.Fatalf("budgeted result %+v != un-budgeted %+v", got, want)
	}
}

// TestInjectedPanicInPoolTask checks the recovery boundary inside the
// worker pool: a panic in one fanned-out per-class check surfaces as a
// typed *InternalError from the entry point — not a process crash.
func TestInjectedPanicInPoolTask(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(11))
	ab := alphabet.MustLetters("ab")
	a := gen.RandomStreett(rng, ab, 8, 2, 0.3, 0.5)
	defer fault.InjectPanic(fault.SiteEngineTask, 1, "poisoned check")()
	eng := engine.New()
	_, err := eng.ClassifyAutomaton(context.Background(), a)
	var ie *engine.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("panicking pool task should surface *InternalError, got %v", err)
	}
	if ie.Op != "task" {
		t.Fatalf("InternalError.Op = %q, want task", ie.Op)
	}
	if msg, ok := ie.Value.(string); !ok || !strings.Contains(msg, "poisoned check") {
		t.Fatalf("InternalError.Value %v should carry the panic message", ie.Value)
	}
	if len(ie.Stack) == 0 {
		t.Fatal("InternalError should carry the recovery-point stack")
	}
	// The engine is not poisoned: the same request succeeds afterwards.
	if _, err := eng.ClassifyAutomaton(context.Background(), a); err != nil {
		t.Fatalf("engine wedged after recovered panic: %v", err)
	}
}

// TestBatchDegradesGracefully is the acceptance scenario: an injected
// panic inside one Batch item surfaces as an *InternalError on that item
// only, while the rest of the batch completes normally.
func TestBatchDegradesGracefully(t *testing.T) {
	defer fault.Reset()
	reqs := []engine.Request{
		{Formula: ltl.MustParse("G !(c1 & c2)")},
		{Formula: ltl.MustParse("F done")},
		{Formula: ltl.MustParse("G (req -> F ack)")},
	}
	// Parallelism 1 serializes the batch items, so the 2nd hit of the
	// batch-item site is deterministically the 2nd request.
	defer fault.InjectPanic(fault.SiteEngineBatch, 2, "poisoned item")()
	eng := engine.New(engine.WithParallelism(1))
	results := eng.Batch(context.Background(), reqs)
	var ie *engine.InternalError
	if !errors.As(results[1].Err, &ie) {
		t.Fatalf("poisoned item should report *InternalError, got %v", results[1].Err)
	}
	if ie.Op != "Batch.item" {
		t.Fatalf("InternalError.Op = %q, want Batch.item", ie.Op)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("healthy item %d failed alongside the poisoned one: %v", i, results[i].Err)
		}
		want, err := core.ClassifyFormula(reqs[i].Formula, nil)
		if err != nil {
			t.Fatalf("sequential reference: %v", err)
		}
		if results[i].Classification != want {
			t.Fatalf("item %d: %+v != sequential %+v", i, results[i].Classification, want)
		}
	}
}

// TestBatchItemBudgetError checks that an injected error (standing in for
// budget exhaustion mid-item) is likewise confined to its item.
func TestBatchItemBudgetError(t *testing.T) {
	defer fault.Reset()
	boom := &budget.ExceededError{Resource: "states", Limit: 1, Used: 2}
	defer fault.InjectError(fault.SiteEngineBatch, 1, boom)()
	eng := engine.New(engine.WithParallelism(1))
	results := eng.Batch(context.Background(), []engine.Request{
		{Formula: ltl.MustParse("G p")},
		{Formula: ltl.MustParse("F q")},
	})
	if !errors.Is(results[0].Err, budget.ErrBudgetExceeded) {
		t.Fatalf("item 0 should report the injected budget error, got %v", results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("item 1 should succeed, got %v", results[1].Err)
	}
}

// TestFaultedResultNotCached checks the memo-cache hygiene rule: a
// construction aborted by a deep injected fault must not leave a partial
// result in the cache — the retry on the same (now warm) engine succeeds
// and matches a fresh engine's answer.
func TestFaultedResultNotCached(t *testing.T) {
	defer fault.Reset()
	f := ltl.MustParse("G (req -> F ack)")
	boom := errors.New("injected mid-compile fault")
	cleanup := fault.InjectError(fault.SiteCompilePast, 1, boom)
	eng := engine.New()
	_, err := eng.ClassifyFormula(context.Background(), f, nil)
	cleanup()
	if !errors.Is(err, boom) {
		t.Fatalf("cold attempt should fail with the injected fault, got %v", err)
	}
	warm, err := eng.ClassifyFormula(context.Background(), f, nil)
	if err != nil {
		t.Fatalf("warm retry after fault: %v", err)
	}
	cold, err := engine.New().ClassifyFormula(context.Background(), f, nil)
	if err != nil {
		t.Fatalf("fresh engine: %v", err)
	}
	if warm != cold {
		t.Fatalf("warm retry %+v != fresh engine %+v — faulted result was cached", warm, cold)
	}
}

// TestBudgetAbortNotCached is the same hygiene rule for budget aborts: a
// caller-attached exhausted budget fails the request, and the retry with
// a clean context returns the true result.
func TestBudgetAbortNotCached(t *testing.T) {
	f := ltl.MustParse("G (req -> F ack)")
	eng := engine.New()
	ctx := budget.With(context.Background(), budget.New(1, 0))
	if _, err := eng.ClassifyFormula(ctx, f, nil); !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("exhausted caller budget should abort, got %v", err)
	}
	warm, err := eng.ClassifyFormula(context.Background(), f, nil)
	if err != nil {
		t.Fatalf("retry with clean context: %v", err)
	}
	cold, err := engine.New().ClassifyFormula(context.Background(), f, nil)
	if err != nil {
		t.Fatalf("fresh engine: %v", err)
	}
	if warm != cold {
		t.Fatalf("post-abort retry %+v != fresh engine %+v", warm, cold)
	}
}

// checkFigure1 asserts the structural inclusions of the paper's Figure 1:
// safety and guarantee are contained in obligation, obligation =
// recurrence ∩ persistence, and everything is reactivity.
func checkFigure1(t *testing.T, c core.Classification) {
	t.Helper()
	if (c.Safety || c.Guarantee) && !(c.Recurrence && c.Persistence) {
		t.Fatalf("Figure-1 violation: safety/guarantee outside recurrence∩persistence: %+v", c)
	}
	if c.Obligation != (c.Recurrence && c.Persistence) {
		t.Fatalf("Figure-1 violation: obligation != recurrence∩persistence: %+v", c)
	}
	if !c.Reactivity {
		t.Fatalf("Figure-1 violation: property outside reactivity: %+v", c)
	}
}

// TestHierarchyInvariantsUnderFaults runs the ISSUE's invariant suite: on
// randomly generated Streett automata, classification satisfies the
// Figure-1 inclusions, and warm-cache results equal cold results even
// after budget-aborted and fault-injected attempts against the same
// engine.
func TestHierarchyInvariantsUnderFaults(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(42))
	ab := alphabet.MustLetters("ab")
	eng := engine.New()
	sites := []string{fault.SiteOmegaEmptiness, fault.SiteEngineTask, fault.SiteDFAProduct}
	for i := 0; i < 25; i++ {
		a := gen.RandomStreett(rng, ab, 2+rng.Intn(10), 1+rng.Intn(2), 0.3, 0.5)

		// A budget-aborted attempt (the cap of 1 step trips immediately)…
		ctx := budget.With(context.Background(), budget.New(0, 1))
		if _, err := eng.ClassifyAutomaton(ctx, a); !errors.Is(err, budget.ErrBudgetExceeded) {
			t.Fatalf("automaton %d: budget-starved attempt should abort, got %v", i, err)
		}
		// …and a fault-injected attempt (which may or may not reach the
		// armed site — either way the engine must stay consistent).
		boom := errors.New("injected")
		cleanup := fault.InjectError(sites[i%len(sites)], 1, boom)
		eng.ClassifyAutomaton(context.Background(), a)
		cleanup()

		warm, err := eng.ClassifyAutomaton(context.Background(), a)
		if err != nil {
			t.Fatalf("automaton %d: warm classify: %v", i, err)
		}
		cold, err := engine.New().ClassifyAutomaton(context.Background(), a)
		if err != nil {
			t.Fatalf("automaton %d: cold classify: %v", i, err)
		}
		if warm != cold {
			t.Fatalf("automaton %d: warm %+v != cold %+v after faulted attempts", i, warm, cold)
		}
		checkFigure1(t, warm)
		seq := core.ClassifyAutomaton(a)
		if warm != seq {
			t.Fatalf("automaton %d: engine %+v != sequential core %+v", i, warm, seq)
		}
	}
}

// TestContainsUnderBudget checks resource governance on the containment
// path: a starved budget aborts with the sentinel, and the verdict after
// the abort matches an un-governed engine.
func TestContainsUnderBudget(t *testing.T) {
	eng := engine.New()
	a, err := eng.CompileFormula(context.Background(), ltl.MustParse("G p"), []string{"p", "q"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.CompileFormula(context.Background(), ltl.MustParse("G p & F q"), []string{"p", "q"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := budget.With(context.Background(), budget.New(1, 0))
	if _, err := contains(ctx, eng, a, b); !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("starved containment should abort, got %v", err)
	}
	got, err := contains(context.Background(), eng, a, b)
	if err != nil {
		t.Fatalf("containment after abort: %v", err)
	}
	want, err := contains(context.Background(), engine.New(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Holds != want.Holds {
		t.Fatalf("containment after abort = %v, fresh engine = %v", got.Holds, want.Holds)
	}
}

// TestContainsUnderLazyFault checks the cache-hygiene rule at the new
// lazy-exploration site: a containment query aborted mid-exploration by
// an injected fault surfaces the error, leaves nothing in the memo
// cache, and the warm retry matches a fresh engine.
func TestContainsUnderLazyFault(t *testing.T) {
	defer fault.Reset()
	// Mixed Streett pairs (strong-fairness shape) on the container defeat
	// every planner probe, so the query runs on the lazy Streett path
	// where the fault site sits. Containment holds, so the lazy path must
	// explore the full product — plenty of hits at the lazy site for the
	// injection to land on.
	eng := engine.New()
	props := []string{"p", "q", "r", "s"}
	a, err := eng.CompileFormula(context.Background(), ltl.MustParse("(G F p -> G F q) & (G F r -> G F s)"), props)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.CompileFormula(context.Background(), ltl.MustParse("G F q & G F s"), props)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected lazy fault")
	cleanup := fault.InjectError(fault.SiteOmegaLazy, 5, boom)
	_, err = contains(context.Background(), eng, a, b)
	cleanup()
	if !errors.Is(err, boom) {
		t.Fatalf("faulted containment should surface the injection, got %v", err)
	}
	warm, err := contains(context.Background(), eng, a, b)
	if err != nil {
		t.Fatalf("warm retry after lazy fault: %v", err)
	}
	if !warm.Holds {
		t.Fatalf("conjoined fairness containment must hold, got witness %v", warm.Witness)
	}
	want, err := contains(context.Background(), engine.New(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Holds != want.Holds {
		t.Fatalf("warm retry %v != fresh engine %v — faulted verdict was cached", warm.Holds, want.Holds)
	}
}
