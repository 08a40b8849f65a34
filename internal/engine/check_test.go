package engine_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/obs"

	"repro/internal/alphabet"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/lang"
	"repro/internal/ltl"
	"repro/internal/omega"
	"repro/internal/plan"
	"repro/internal/ts"
)

var ab = alphabet.MustLetters("ab")

// contains asks L(a) ⊇ L(b) through the engine's one query entry.
func contains(ctx context.Context, eng *engine.Engine, a, b *omega.Automaton) (engine.Verdict, error) {
	return eng.Check(ctx, engine.CheckRequest{Kind: engine.CheckContains, Left: a, Right: b})
}

// TestCheckContains runs the unified API end to end on a safety pair:
// the verdict must come from the safety tier, and the warm repeat from
// the memo cache with identical provenance.
func TestCheckContains(t *testing.T) {
	eng := engine.New()
	a := lang.A(lang.MustRegex("a*", ab))
	b := lang.A(lang.MustRegex("a^+", ab))
	v, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckContains, Left: a, Right: b})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds {
		t.Fatalf("A(a*) ⊇ A(a+) must hold, got witness %v", v.Witness)
	}
	if v.Tier != plan.TierSafety || v.Fallback || v.Cached {
		t.Fatalf("cold safety containment verdict has wrong provenance: %+v", v)
	}
	warm, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckContains, Left: a, Right: b})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached || warm.Holds != v.Holds || warm.Tier != v.Tier {
		t.Fatalf("warm verdict should be a cache hit with the same provenance: %+v", warm)
	}
}

// TestCheckContainsFormulaOperands: operands given as formulas compile
// through the engine (sharing the compile cache) and then plan.
func TestCheckContainsFormulaOperands(t *testing.T) {
	eng := engine.New()
	v, err := eng.Check(context.Background(), engine.CheckRequest{
		Kind:         engine.CheckContains,
		LeftFormula:  ltl.MustParse("G p"),
		RightFormula: ltl.MustParse("G (p & q)"),
		Props:        []string{"p", "q"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds {
		t.Fatalf("G (p&q) ⊆ G p must hold, got witness %v", v.Witness)
	}
	if v.Tier != plan.TierSafety {
		t.Fatalf("invariant containment should plan safety, got %v", v.Tier)
	}
}

// TestCheckEquivalent: both directions run; a false verdict carries a
// separating word.
func TestCheckEquivalent(t *testing.T) {
	eng := engine.New()
	a := lang.R(lang.MustRegex(".*b", ab))
	b := lang.R(lang.MustRegex(".*b.*", ab))
	v, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckEquivalent, Left: a, Right: a})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds {
		t.Fatal("automaton must be equivalent to itself")
	}
	v, err = eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckEquivalent, Left: a, Right: b})
	if err != nil {
		t.Fatal(err)
	}
	if v.Holds {
		t.Fatal("R(.*b) and R(.*b.*) differ (a^ω separates them)")
	}
	if v.Witness.IsZero() {
		t.Fatal("false equivalence verdict must carry a separating lasso")
	}
}

// TestCheckEmptiness: planned emptiness through the engine, cached on
// repeat.
func TestCheckEmptiness(t *testing.T) {
	eng := engine.New()
	a := lang.E(lang.MustRegex("a.*", ab))
	v, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckEmptiness, Left: a})
	if err != nil {
		t.Fatal(err)
	}
	if v.Holds {
		t.Fatal("E(a.*) is non-empty")
	}
	if v.Tier == plan.TierStreett {
		t.Fatalf("guarantee emptiness should run specialized, got %v", v.Tier)
	}
	warm, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckEmptiness, Left: a})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("repeat emptiness should hit the memo cache")
	}
}

// TestCheckVerify: the unified API model-checks a system, reporting the
// invariant fast path for □χ and a counterexample on violation.
func TestCheckVerify(t *testing.T) {
	eng := engine.New()
	sys, err := ts.Peterson()
	if err != nil {
		t.Fatal(err)
	}
	v, err := eng.Check(context.Background(), engine.CheckRequest{
		Kind: engine.CheckVerify, System: sys, Formula: ltl.MustParse("G !(c1 & c2)"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds || v.Tier != plan.TierSafety {
		t.Fatalf("mutual exclusion should hold on the invariant tier: %+v", v)
	}
	v, err = eng.Check(context.Background(), engine.CheckRequest{
		Kind: engine.CheckVerify, System: sys, Formula: ltl.MustParse("G !w1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Holds || v.Counterexample == nil {
		t.Fatalf("violated invariant should carry a counterexample: %+v", v)
	}
}

// TestCheckFallbackNotCached is the planner cache-hygiene rule: a
// verdict obtained via fallback (fault at the specialized entry) is
// correct and marked, but must NOT be memoized — the retry without the
// fault runs the fast path again and only then populates the cache.
func TestCheckFallbackNotCached(t *testing.T) {
	defer fault.Reset()
	eng := engine.New()
	a := lang.A(lang.MustRegex("a*", ab))
	b := lang.A(lang.MustRegex("a^+", ab))
	boom := errors.New("injected specialized fault")
	cleanup := fault.InjectError(fault.SitePlan, 1, boom)
	faulted, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckContains, Left: a, Right: b})
	cleanup()
	if err != nil {
		t.Fatalf("fault should fall back, not error: %v", err)
	}
	if !faulted.Fallback || !faulted.Holds {
		t.Fatalf("faulted run should report a correct fallback verdict: %+v", faulted)
	}
	retry, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckContains, Left: a, Right: b})
	if err != nil {
		t.Fatal(err)
	}
	if retry.Cached {
		t.Fatal("fallback verdict was cached — hygiene rule violated")
	}
	if retry.Fallback || retry.Tier != plan.TierSafety {
		t.Fatalf("retry should run the fast path cleanly: %+v", retry)
	}
	third, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckContains, Left: a, Right: b})
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached {
		t.Fatal("clean verdict should now be memoized")
	}
}

// TestCheckBudgetSpendReported: under engine budgets the verdict
// reports positive spend; governance aborts surface the typed sentinel.
func TestCheckBudgetSpendReported(t *testing.T) {
	eng := engine.New(engine.WithStateBudget(10_000), engine.WithStepBudget(640_000))
	a := lang.A(lang.MustRegex("a*", ab))
	b := lang.A(lang.MustRegex("a^+", ab))
	v, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckContains, Left: a, Right: b})
	if err != nil {
		t.Fatal(err)
	}
	if v.BudgetStates <= 0 && v.BudgetSteps <= 0 {
		t.Fatalf("budgeted check should report spend, got %+v", v)
	}
}

var cntMCNodesCheck = obs.NewCounter("mc.lazy.nodes_materialized")

// negationStates is the state charge of compiling ¬f over f's
// propositions under a fresh budget — the property automaton the model
// checker builds inside a verification request before it explores the
// product.
func negationStates(t *testing.T, f ltl.Formula) int64 {
	t.Helper()
	b := budget.New(1<<40, 0)
	if _, err := core.CompileFormulaCtx(budget.With(context.Background(), b), ltl.Not{F: f}, ltl.Props(f)); err != nil {
		t.Fatal(err)
	}
	return b.States()
}

// TestCheckVerifyChargesPropertyCompile: a verification request's budget
// covers the whole request, so the reported spend includes compiling the
// negated property on top of the product nodes the search closed.
func TestCheckVerifyChargesPropertyCompile(t *testing.T) {
	sys, err := ts.TrivialMutex()
	if err != nil {
		t.Fatal(err)
	}
	f := ltl.MustParse("G (w1 -> F c1)")
	neg := negationStates(t, f)
	if neg < 3 {
		t.Fatalf("compiling ¬f charges %d states; the check needs a multi-state negation", neg)
	}
	eng := engine.New(engine.WithStateBudget(1 << 40))
	nodes := cntMCNodesCheck.Value()
	v, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckVerify, System: sys, Formula: f})
	nodes = cntMCNodesCheck.Value() - nodes
	if err != nil {
		t.Fatal(err)
	}
	if v.Holds || nodes == 0 {
		t.Fatalf("the trivial mutex must fail accessibility on the product search: %+v, %d nodes", v, nodes)
	}
	if v.BudgetStates < neg+nodes {
		t.Fatalf("request spent %d states; compiling ¬f charges %d and the product closed %d", v.BudgetStates, neg, nodes)
	}
}
