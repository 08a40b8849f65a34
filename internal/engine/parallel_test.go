package engine_test

// Engine-level governance for the sharded parallel search: a
// WithParallelism engine attaches its worker bound to every request
// context that can reach an exploration frontier, so the lazy Streett
// product exploration and the model checker's product shard their waves
// at the production thresholds when the product is large enough (or at
// the thresholds a caller lowers with par.WithShardThresholds). A fault
// injected at a lazy site in that mode must (a) surface, (b) never leave
// a verdict in the memo cache, and (c) degrade bit-identically — same
// error, same states-materialized count — to a single-worker engine. A
// state budget must stop both products after the same spend.

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
	"repro/internal/par"
	"repro/internal/ts"
)

var (
	cntLazyStatesEng = obs.NewCounter("omega.lazy.states_materialized")
	cntParWavesEng   = obs.NewCounter("omega.parallel.waves")
	cntMCNodesEng    = obs.NewCounter("mc.lazy.nodes_materialized")
	cntMCWavesEng    = obs.NewCounter("mc.parallel.waves")
)

// bigFairnessPair compiles a five-pair conjoined-fairness containment
// whose container automaton has 1024 states: mixed Streett pairs defeat
// every planner probe, the containment holds so the lazy path explores
// the full product, and the product is large enough that a parallel
// engine shards its waves at the production thresholds.
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
// a product big enough to shard — and that the sharded wave path really
// engaged.
func TestParallelEngineMatchesSequential(t *testing.T) {
	a, b := bigFairnessPair(t)
	seq, err := contains(context.Background(), engine.New(engine.WithParallelism(1)), a, b)
	if err != nil {
		t.Fatal(err)
	}
	wavesBefore := cntParWavesEng.Value()
	par, err := contains(context.Background(), engine.New(engine.WithParallelism(8)), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if par.Holds != seq.Holds || !reflect.DeepEqual(par.Witness, seq.Witness) {
		t.Fatalf("parallel engine (%v, %v) != sequential engine (%v, %v)", par.Holds, par.Witness, seq.Holds, seq.Witness)
	}
	if !par.Holds {
		t.Fatal("conjoined fairness containment must hold")
	}
	if cntParWavesEng.Value() == wavesBefore {
		t.Fatal("parallel engine never engaged the sharded wave path")
	}
}

// TestParallelEngineFaultGovernance mirrors TestContainsUnderLazyFault on
// the sharded path: the injection lands mid-exploration of a genuinely
// sharded product, yet the abort must be indistinguishable from the
// single-worker engine's, and nothing may be cached.
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

// runRingVerify checks the ring request on an engine with the given worker
// count (and options), with the sharding thresholds lowered so the jobs=2
// run shards its waves. It reports the error, the product nodes closed and
// whether a sharded wave ran.
func runRingVerify(t *testing.T, workers int, opts ...engine.Option) (error, int64, bool) {
	t.Helper()
	req := ringVerify(t)
	eng := engine.New(append(opts, engine.WithParallelism(workers))...)
	ctx := par.WithShardThresholds(context.Background(), 2, 1)
	nodes, waves := cntMCNodesEng.Value(), cntMCWavesEng.Value()
	_, err := eng.Check(ctx, req)
	return err, cntMCNodesEng.Value() - nodes, cntMCWavesEng.Value() > waves
}

// TestParallelVerifyBudgetParity: the model checker's product charges the
// request's state budget per closed node, exactly as omega's lazy product
// does, so a budget below the product size stops the check — after the
// same spend at one worker and at two. The request first compiles the
// negated property under the same budget, so the product gets what that
// compile leaves.
func TestParallelVerifyBudgetParity(t *testing.T) {
	_, full, _ := runRingVerify(t, 1)
	const limit = 100
	if full <= limit {
		t.Fatalf("ring product closes %d nodes; the budget must sit below it", full)
	}
	productShare := limit - negationStates(t, ringVerify(t).Formula)
	spend := map[int]int64{}
	for _, workers := range []int{1, 2} {
		err, nodes, sharded := runRingVerify(t, workers, engine.WithStateBudget(limit))
		var ex *budget.ExceededError
		if !errors.As(err, &ex) || ex.Resource != "states" {
			t.Fatalf("workers=%d: want a states budget exhaustion, got %v", workers, err)
		}
		if nodes != productShare {
			t.Fatalf("workers=%d: closed %d product nodes under a %d-state budget, want %d",
				workers, nodes, limit, productShare)
		}
		if workers > 1 && !sharded {
			t.Fatalf("workers=%d: no sharded wave ran", workers)
		}
		spend[workers] = ex.Used
	}
	if spend[1] != spend[2] {
		t.Fatalf("budget spend at exhaustion: %d at one worker, %d at two", spend[1], spend[2])
	}
}

// TestParallelVerifyFaultParity injects an error at the model checker's
// lazy site mid-product: it must surface, after the same number of closed
// nodes at one worker and at two.
func TestParallelVerifyFaultParity(t *testing.T) {
	defer fault.Reset()
	boom := errors.New("injected mc lazy fault")
	closed := map[int]int64{}
	for _, workers := range []int{1, 2} {
		cleanup := fault.InjectError(fault.SiteMCLazy, 150, boom)
		err, nodes, sharded := runRingVerify(t, workers)
		cleanup()
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: want the injected fault, got %v", workers, err)
		}
		if workers > 1 && !sharded {
			t.Fatalf("workers=%d: no sharded wave ran", workers)
		}
		closed[workers] = nodes
	}
	if closed[1] != 149 || closed[2] != closed[1] {
		t.Fatalf("nodes closed before the fault: %d at one worker, %d at two; want 149", closed[1], closed[2])
	}
}
