package omega_test

// Governance and concurrency of the lazy product exploration: a fault or
// an exhausted budget stops the product at the state that tripped it, a
// canceled context stops it between states, and concurrent queries over
// shared automata agree with a lone query.

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/budget"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/omega"
)

var cntLazyStatesRead = obs.NewCounter("omega.lazy.states_materialized")

// TestLazyFaultStopsProduct injects an error at the lazy site on its
// 1000th hit, deep inside a product of thousands of states: the error
// surfaces and exactly the 999 states admitted before it are closed.
func TestLazyFaultStopsProduct(t *testing.T) {
	defer fault.Reset()
	a, b := gen.NestedCounters(ab, 41, 43)
	boom := errors.New("injected lazy fault")
	cleanup := fault.InjectError(fault.SiteOmegaLazy, 1000, boom)
	defer cleanup()
	before := cntLazyStatesRead.Value()
	_, _, err := a.ContainsCtx(context.Background(), b)
	if !errors.Is(err, boom) {
		t.Fatalf("want the injected fault, got %v", err)
	}
	if d := cntLazyStatesRead.Value() - before; d != 999 {
		t.Fatalf("materialized %d states before the fault, want 999", d)
	}
}

// TestLazyBudgetStopsProduct exhausts a state budget mid-product: the
// query stops with the budget error once the limit's 700 states are
// closed, having charged one state more: the one whose admission failed.
func TestLazyBudgetStopsProduct(t *testing.T) {
	a, b := gen.NestedCounters(ab, 41, 43)
	bud := budget.New(700, 0)
	before := cntLazyStatesRead.Value()
	_, _, err := a.ContainsCtx(budget.With(context.Background(), bud), b)
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("want budget exhaustion, got %v", err)
	}
	if got := bud.States(); got != 701 {
		t.Fatalf("charged %d states, want 701", got)
	}
	if d := cntLazyStatesRead.Value() - before; d != 700 {
		t.Fatalf("materialized %d states, want 700", d)
	}
}

// TestParallelCancellationMidWave cancels an exploration between two
// waves; the next wave must return promptly with the context error.
func TestParallelCancellationMidWave(t *testing.T) {
	a, b := gen.NestedCounters(ab, 41, 43)
	ctx, cancel := context.WithCancel(context.Background())
	e, err := omega.NewProductExplorer(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExploreCtx(ctx, 600); err != nil {
		t.Fatalf("pre-cancel exploration: %v", err)
	}
	closed := e.Materialized()
	cancel()
	done, err := e.ExploreCtx(ctx, 1<<20)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel exploration: done=%v err=%v, want context.Canceled", done, err)
	}
	if e.Materialized() != closed {
		t.Fatalf("closed %d states after cancellation", e.Materialized()-closed)
	}
}

// TestParallelRaceStress hammers one shared automaton pair — shared
// kernels, CAS-published analyses, structural keys — with concurrent
// queries. Run under -race by check.sh; every query must agree with a
// lone query's verdict and witness.
func TestParallelRaceStress(t *testing.T) {
	a, b := gen.NestedCounters(ab, 23, 29)
	seqOK, seqW, err := a.ContainsCtx(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ok, w, err := a.ContainsCtx(context.Background(), b)
			if err != nil {
				errs[g] = err
				return
			}
			if ok != seqOK || !reflect.DeepEqual(w, seqW) {
				errs[g] = errors.New("verdict diverged from a lone query")
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
