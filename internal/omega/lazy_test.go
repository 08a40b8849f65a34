package omega

// In-package tests for the lazy exploration layer: explorer invariants,
// wave boundaries (via the internal firstWave parameters), budget and
// fault behaviour at the lazy sites, and the states-materialized
// accounting. Differential tests against the eager oracle over random
// automata live in the external differential_test.go.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/budget"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/word"
)

var (
	lazyAB        = alphabet.MustLetters("ab")
	cntLazyStates = obs.NewCounter("omega.lazy.states_materialized")
)

// modCounter mirrors gen.ModCounter (gen imports omega, so in-package
// tests rebuild the fixture locally): counts 'a' symbols mod m with one
// pair, state c ∈ R iff rZero && c == 0, state c ∈ P iff pAll.
func modCounter(m int, rZero, pAll bool) *Automaton {
	trans := make([][]int, m)
	p := Pair{R: make([]bool, m), P: make([]bool, m)}
	for c := 0; c < m; c++ {
		trans[c] = []int{(c + 1) % m, c}
		p.R[c] = rZero && c == 0
		p.P[c] = pAll
	}
	return MustNew(lazyAB, trans, 0, []Pair{p})
}

func TestProductExplorerInvariants(t *testing.T) {
	a := modCounter(3, true, false)
	b := modCounter(5, true, false)
	ex, err := NewProductExplorer(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Materialized() != 0 || ex.Discovered() != 1 {
		t.Fatalf("fresh explorer: materialized %d discovered %d", ex.Materialized(), ex.Discovered())
	}
	if lo, hi := ex.PairRange(0); lo != 0 || hi != 1 {
		t.Errorf("PairRange(0) = [%d,%d)", lo, hi)
	}
	if lo, hi := ex.PairRange(1); lo != 1 || hi != 2 {
		t.Errorf("PairRange(1) = [%d,%d)", lo, hi)
	}
	if tup := ex.StateTuple(0); tup[0] != 0 || tup[1] != 0 {
		t.Errorf("start tuple = %v", tup)
	}

	done, err := ex.ExploreCtx(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("15-state product cannot be done after a 4-state wave")
	}
	if ex.Materialized() != 4 {
		t.Errorf("materialized %d after limit-4 wave", ex.Materialized())
	}
	// Progress is monotone: a limit at or below closed is a no-op.
	if _, err := ex.ExploreCtx(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if ex.Materialized() != 4 {
		t.Errorf("regressed to %d materialized", ex.Materialized())
	}

	// The view's closed region must be exactly the materialized prefix,
	// with real rows inside and nil rows on the frontier.
	view, closed := ex.view()
	for i := 0; i < view.NumStates(); i++ {
		wantClosed := i < ex.Materialized()
		if closed[i] != wantClosed {
			t.Errorf("closed[%d] = %v", i, closed[i])
		}
		if (view.kern.Row(i) != nil) != wantClosed {
			t.Errorf("state %d: row materialization disagrees with closed set", i)
		}
	}

	done, err = ex.ExploreCtx(context.Background(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("unbounded wave must finish the product")
	}
	// Coprime moduli: the diagonal reaches all 15 product states.
	if ex.Materialized() != 15 {
		t.Errorf("full product has %d states, want 15", ex.Materialized())
	}
	// Tuples must decode back to the factor states (CRT: all distinct).
	seen := map[string]bool{}
	for i := 0; i < ex.Materialized(); i++ {
		tup := ex.StateTuple(i)
		key := fmt.Sprint(tup)
		if seen[key] {
			t.Errorf("duplicate tuple %v", tup)
		}
		seen[key] = true
	}
}

func TestProductExplorerAlphabetMismatch(t *testing.T) {
	a := modCounter(2, true, false)
	b := Universal(alphabet.MustLetters("xy"))
	_, err := NewProductExplorer(a, b)
	if err == nil {
		t.Fatal("mismatched alphabets must be rejected")
	}
	for _, alpha := range []string{"a", "b", "x", "y"} {
		if !containsStr(err.Error(), alpha) {
			t.Errorf("error %q does not name symbol %q of both alphabets", err, alpha)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestLazyContainsWaveBoundaries runs the lazy decision with pathological
// first waves (1 forces maximal wave counts, huge makes it one-shot) and
// checks the verdict and witness against the eager oracle.
func TestLazyContainsWaveBoundaries(t *testing.T) {
	// a ⊉ b with a shallow witness, and b ⊆ b′ trivially.
	a := modCounter(3, true, false)   // count ≡ 0 (mod 3) infinitely often
	b := modCounter(5, false, true)   // universal (every state in P)
	sup := modCounter(1, false, true) // universal over one state

	for _, firstWave := range []int{1, 2, 3, 64, 1 << 20} {
		ok, w, err := a.lazyContainsCtx(context.Background(), b, firstWave)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("firstWave=%d: a cannot contain the universal language", firstWave)
		}
		inB, err := b.Accepts(w)
		if err != nil {
			t.Fatal(err)
		}
		inA, err := a.Accepts(w)
		if err != nil {
			t.Fatal(err)
		}
		if !inB || inA {
			t.Fatalf("firstWave=%d: witness %v not in L(b)−L(a)", firstWave, w)
		}

		ok, w, err = sup.lazyContainsCtx(context.Background(), b, firstWave)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("firstWave=%d: universal must contain universal, witness %v", firstWave, w)
		}
		if !w.IsZero() {
			t.Fatalf("firstWave=%d: true verdict must carry the zero lasso, got %v", firstWave, w)
		}
	}
}

func TestLazyIntersectWitnessWaveBoundaries(t *testing.T) {
	// Non-empty: both factors are persistence counters happy at count 0;
	// (b)^ω realizes it without leaving the start state.
	nonEmpty := []*Automaton{modCounter(3, false, false), modCounter(5, false, false)}
	for i, a := range nonEmpty {
		// P = {0} only: rebuild with the persistence target.
		m := a.NumStates()
		p := Pair{R: make([]bool, m), P: make([]bool, m)}
		p.P[0] = true
		nonEmpty[i] = MustNew(lazyAB, a.kern.Rows(), 0, []Pair{p})
	}
	for _, firstWave := range []int{1, 2, 64, 1 << 20} {
		w, ok, err := lazyIntersectWitnessCtx(context.Background(), nonEmpty, firstWave)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("firstWave=%d: intersection should be non-empty", firstWave)
		}
		for fi, a := range nonEmpty {
			in, err := a.Accepts(w)
			if err != nil {
				t.Fatal(err)
			}
			if !in {
				t.Fatalf("firstWave=%d: witness %v rejected by factor %d", firstWave, w, fi)
			}
		}
	}

	// Empty: incompatible persistence targets over one modulus.
	empty := make([]*Automaton, 2)
	for i := range empty {
		p := Pair{R: make([]bool, 4), P: make([]bool, 4)}
		p.P[i+1] = true
		empty[i] = MustNew(lazyAB, modCounter(4, false, false).kern.Rows(), 0, []Pair{p})
	}
	for _, firstWave := range []int{1, 64} {
		_, ok, err := lazyIntersectWitnessCtx(context.Background(), empty, firstWave)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("firstWave=%d: intersection should be empty", firstWave)
		}
	}
}

// TestLazyContainsMaterializesFewStates is the heart of the tentpole: a
// shallow counterexample must be found without building the product.
func TestLazyContainsMaterializesFewStates(t *testing.T) {
	a := modCounter(97, true, false)
	b := modCounter(89, false, true) // universal; full product has 97·89 = 8633 states
	before := cntLazyStates.Value()
	ok, w, err := a.Contains(b)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("containment cannot hold against the universal language")
	}
	materialized := cntLazyStates.Value() - before
	if materialized > 2*defaultFirstWave {
		t.Errorf("shallow witness materialized %d states; want ≤ %d (full product: 8633)",
			materialized, 2*defaultFirstWave)
	}
	inB, _ := b.Accepts(w)
	inA, _ := a.Accepts(w)
	if !inB || inA {
		t.Errorf("witness %v not in L(b)−L(a)", w)
	}
}

func TestLazyEarlyExitCounter(t *testing.T) {
	a := modCounter(97, true, false)
	b := modCounter(89, false, true)
	before := cntLazyEarlyExits.Value()
	if _, _, err := a.Contains(b); err != nil {
		t.Fatal(err)
	}
	if cntLazyEarlyExits.Value() == before {
		t.Error("shallow counterexample should count as an early exit")
	}
}

func TestLazyContainsChargesBudget(t *testing.T) {
	// Containment holds, so the lazy path must explore the full 35-state
	// product — a 10-state budget has to stop it.
	a := modCounter(5, true, false)
	b := modCounter(35, true, false)
	ctx := budget.With(context.Background(), budget.New(10, 0))
	_, _, err := a.ContainsCtx(ctx, b)
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}

	// The same query inside budget is charged, not free.
	bud := budget.New(1000, 0)
	ctx = budget.With(context.Background(), bud)
	if _, _, err := a.ContainsCtx(ctx, b); err != nil {
		t.Fatal(err)
	}
	if bud.States() < 35 {
		t.Errorf("charged %d states, want ≥ 35 (one per materialized product state)", bud.States())
	}
}

func TestLazyFaultInjection(t *testing.T) {
	defer fault.Reset()
	a := modCounter(5, true, false)
	b := modCounter(7, true, false)

	boom := errors.New("boom")
	cleanup := fault.InjectError(fault.SiteOmegaLazy, 3, boom)
	_, _, err := a.Contains(b)
	cleanup()
	if !errors.Is(err, boom) {
		t.Fatalf("Contains under fault: err = %v, want injected", err)
	}

	cleanup = fault.InjectError(fault.SiteOmegaLazy, 3, boom)
	_, _, err = IntersectWitness(a, b)
	cleanup()
	if !errors.Is(err, boom) {
		t.Fatalf("IntersectWitness under fault: err = %v, want injected", err)
	}

	// Disarmed, the same queries succeed.
	if _, _, err := a.Contains(b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := IntersectWitness(a, b); err != nil {
		t.Fatal(err)
	}
}

// TestLazyMatchesEagerOnCounters pins lazy and eager to identical
// verdicts on the deterministic counter families at several sizes.
func TestLazyMatchesEagerOnCounters(t *testing.T) {
	cases := []struct {
		name string
		a, b *Automaton
	}{
		{"shallow-5-3", modCounter(5, true, false), modCounter(3, false, true)},
		{"nested-3-12", modCounter(3, true, false), modCounter(12, true, false)},
		{"equal-4-4", modCounter(4, true, false), modCounter(4, true, false)},
		{"reverse-12-3", modCounter(12, true, false), modCounter(3, true, false)},
	}
	for _, tc := range cases {
		lazyOK, _, err := tc.a.Contains(tc.b)
		if err != nil {
			t.Fatalf("%s lazy: %v", tc.name, err)
		}
		eagerOK, _, err := tc.a.ContainsEager(tc.b)
		if err != nil {
			t.Fatalf("%s eager: %v", tc.name, err)
		}
		if lazyOK != eagerOK {
			t.Errorf("%s: lazy=%v eager=%v", tc.name, lazyOK, eagerOK)
		}
	}
}

func TestIsZeroSentinelThroughAPI(t *testing.T) {
	a := modCounter(3, true, false)
	ok, w, err := a.Contains(a)
	if err != nil || !ok {
		t.Fatalf("self-containment: %v %v", ok, err)
	}
	if !w.IsZero() {
		t.Errorf("true verdict carries non-zero lasso %v", w)
	}
	ok, w, err = a.Equivalent(a)
	if err != nil || !ok {
		t.Fatalf("self-equivalence: %v %v", ok, err)
	}
	if !w.IsZero() {
		t.Errorf("true equivalence carries non-zero lasso %v", w)
	}
	// And a real witness is never the zero value.
	ok, w, err = a.Contains(modCounter(5, false, true))
	if err != nil || ok {
		t.Fatalf("setup: %v %v", ok, err)
	}
	if w.IsZero() {
		t.Error("false verdict must carry a real witness")
	}
	var zero word.Lasso
	if !zero.IsZero() {
		t.Error("zero value must report IsZero")
	}
}
