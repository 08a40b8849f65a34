package engine_test

// Engine-level governance of the lazy products. A WithParallelism engine
// fans clause compilation and per-class checks out to its worker pool,
// but every product exploration runs on the request's goroutine, so a
// fault injected at a lazy site must (a) surface, (b) never leave a
// verdict in the memo cache, and (c) degrade exactly as on a
// single-worker engine — same error, same states-materialized count. A
// state budget must stop the model checker's product after an exact
// spend.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/omega"
	"repro/internal/ts"
)

var (
	cntLazyStatesEng = obs.NewCounter("omega.lazy.states_materialized")
	cntMCNodesEng    = obs.NewCounter("mc.lazy.nodes_materialized")
)

// bigFairnessPair compiles a five-pair conjoined-fairness containment
// whose container automaton has 1024 states: mixed Streett pairs defeat
// every planner probe, the containment holds so the lazy path explores
// the full product, which runs to thousands of states.
func bigFairnessPair(t *testing.T) (a, b *omega.Automaton) {
	t.Helper()
	props := []string{"p", "q", "r", "s", "u", "v", "w", "x", "y", "z"}
	eng := engine.New()
	a, err := eng.CompileFormula(context.Background(), ltl.MustParse(
		"(G F p -> G F q) & (G F r -> G F s) & (G F u -> G F v) & (G F w -> G F x) & (G F y -> G F z)"), props)
	if err != nil {
		t.Fatal(err)
	}
	b, err = eng.CompileFormula(context.Background(), ltl.MustParse(
		"G F q & G F s & G F v & G F x & G F z"), props)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestParallelEngineMatchesSequential checks a WithParallelism engine
// produces the identical verdict and witness as a single-worker engine on
// a large product.
func TestParallelEngineMatchesSequential(t *testing.T) {
	a, b := bigFairnessPair(t)
	seq, err := contains(context.Background(), engine.New(engine.WithParallelism(1)), a, b)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := contains(context.Background(), engine.New(engine.WithParallelism(8)), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if pooled.Holds != seq.Holds || !reflect.DeepEqual(pooled.Witness, seq.Witness) {
		t.Fatalf("parallel engine (%v, %v) != sequential engine (%v, %v)", pooled.Holds, pooled.Witness, seq.Holds, seq.Witness)
	}
	if !pooled.Holds {
		t.Fatal("conjoined fairness containment must hold")
	}
}

// TestParallelEngineFaultGovernance mirrors TestContainsUnderLazyFault on
// a WithParallelism engine: the injection lands mid-exploration of a large
// product, yet the abort must be indistinguishable from the single-worker
// engine's, and nothing may be cached.
func TestParallelEngineFaultGovernance(t *testing.T) {
	defer fault.Reset()
	a, b := bigFairnessPair(t)
	boom := errors.New("injected parallel lazy fault")
	run := func(workers int) (*engine.Engine, error, int64) {
		eng := engine.New(engine.WithParallelism(workers))
		cleanup := fault.InjectError(fault.SiteOmegaLazy, 500, boom)
		defer cleanup()
		before := cntLazyStatesEng.Value()
		_, err := contains(context.Background(), eng, a, b)
		return eng, err, cntLazyStatesEng.Value() - before
	}
	_, seqErr, seqStates := run(1)
	if !errors.Is(seqErr, boom) {
		t.Fatalf("single-worker run should surface the injection, got %v", seqErr)
	}
	eng8, parErr, parStates := run(8)
	if !errors.Is(parErr, boom) {
		t.Fatalf("parallel run should surface the injection, got %v", parErr)
	}
	if parStates != seqStates {
		t.Fatalf("parallel run materialized %d states before the fault, single-worker %d",
			parStates, seqStates)
	}
	// Cache hygiene: the faulted query must not have cached a verdict —
	// the warm retry on the same engine must agree with a fresh engine.
	warm, err := contains(context.Background(), eng8, a, b)
	if err != nil {
		t.Fatalf("warm retry after parallel lazy fault: %v", err)
	}
	want, err := contains(context.Background(), engine.New(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Holds != want.Holds {
		t.Fatalf("warm retry %v != fresh engine %v — faulted verdict was cached", warm.Holds, want.Holds)
	}
}

// ringVerify is a Streett-tier model-checking request: strong pass
// fairness makes G (w0 -> F c0) hold on the 5-process ring, so the fair
// lasso search closes the whole 240-node product.
func ringVerify(t *testing.T) engine.CheckRequest {
	t.Helper()
	sys, err := ts.RingMutex(5, ts.Strong)
	if err != nil {
		t.Fatal(err)
	}
	return engine.CheckRequest{Kind: engine.CheckVerify, System: sys, Formula: ltl.MustParse("G (w0 -> F c0)")}
}

// runRingVerify checks the ring request on a single-worker engine with
// the given options. It reports the error and the product nodes closed.
func runRingVerify(t *testing.T, opts ...engine.Option) (error, int64) {
	t.Helper()
	req := ringVerify(t)
	eng := engine.New(append(opts, engine.WithParallelism(1))...)
	nodes := cntMCNodesEng.Value()
	_, err := eng.Check(context.Background(), req)
	return err, cntMCNodesEng.Value() - nodes
}

// TestVerifyBudgetStopsProduct: the model checker's product charges the
// request's state budget per closed node, exactly as omega's lazy product
// does, so a budget below the product size stops the check. The request
// first compiles the negated property under the same budget, so the
// product closes exactly what that compile leaves.
func TestVerifyBudgetStopsProduct(t *testing.T) {
	_, full := runRingVerify(t)
	const limit = 100
	if full <= limit {
		t.Fatalf("ring product closes %d nodes; the budget must sit below it", full)
	}
	productShare := limit - negationStates(t, ringVerify(t).Formula)
	err, nodes := runRingVerify(t, engine.WithStateBudget(limit))
	var ex *budget.ExceededError
	if !errors.As(err, &ex) || ex.Resource != "states" {
		t.Fatalf("want a states budget exhaustion, got %v", err)
	}
	if nodes != productShare {
		t.Fatalf("closed %d product nodes under a %d-state budget, want %d", nodes, limit, productShare)
	}
	if ex.Used != limit+1 {
		t.Fatalf("budget spend at exhaustion %d, want %d", ex.Used, limit+1)
	}
}

// TestVerifyFaultStopsProduct injects an error at the model checker's
// lazy site on its 150th hit: it must surface after exactly 149 closed
// nodes.
func TestVerifyFaultStopsProduct(t *testing.T) {
	defer fault.Reset()
	boom := errors.New("injected mc lazy fault")
	cleanup := fault.InjectError(fault.SiteMCLazy, 150, boom)
	err, nodes := runRingVerify(t)
	cleanup()
	if !errors.Is(err, boom) {
		t.Fatalf("want the injected fault, got %v", err)
	}
	if nodes != 149 {
		t.Fatalf("closed %d nodes before the fault, want 149", nodes)
	}
}
