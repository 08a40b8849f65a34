package mc_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/ts"
)

// TestInvariantObservability: the safety tier reports its exploration as
// an mc.invariant span (states explored, verdict) and in the
// mc.invariant.states counter, so -stats, /metrics and traces show it.
func TestInvariantObservability(t *testing.T) {
	sys, err := ts.RingMutex(3, ts.Strong)
	if err != nil {
		t.Fatal(err)
	}
	states := obs.Default().Counter("mc.invariant.states")
	for _, tc := range []struct {
		chi   string
		holds bool
	}{
		{"!(c0 & c1)", true},
		{"!c2", false},
	} {
		var col obs.Collector
		obs.Attach(&col)
		before := states.Value()
		ok, path, err := mc.InvariantCtx(context.Background(), sys, ltl.MustParse(tc.chi))
		obs.Detach()
		if err != nil || ok != tc.holds {
			t.Fatalf("%s: holds=%v err=%v, want %v", tc.chi, ok, err, tc.holds)
		}
		sp := col.Find("mc.invariant")
		if sp == nil {
			t.Fatalf("%s: no mc.invariant span", tc.chi)
		}
		n, _ := sp.Attr("states")
		h, _ := sp.Attr("holds")
		if h != tc.holds {
			t.Errorf("%s: span holds=%v, want %v", tc.chi, h, tc.holds)
		}
		delta := states.Value() - before
		if n != delta || delta <= 0 {
			t.Errorf("%s: span states=%v, counter delta %d", tc.chi, n, delta)
		}
		if tc.holds {
			if int(delta) != len(sys.ReachableStates()) {
				t.Errorf("%s: explored %d states, %d reachable", tc.chi, delta, len(sys.ReachableStates()))
			}
			continue
		}
		// The counterexample is a path from an initial state to a
		// violating one.
		if len(path) == 0 || !slices.Contains(sys.Init(), path[0]) {
			t.Fatalf("%s: path %v does not start at an initial state", tc.chi, path)
		}
		for i := 1; i < len(path); i++ {
			if !slices.Contains(sys.AllSuccessors(path[i-1]), path[i]) {
				t.Fatalf("%s: path %v: no step %d → %d", tc.chi, path, path[i-1], path[i])
			}
		}
		if ok, _ := mc.StateHolds(sys, path[len(path)-1], ltl.MustParse(tc.chi)); ok {
			t.Errorf("%s: path ends in a state satisfying the invariant", tc.chi)
		}
	}
	if !obs.Default().Has("mc.invariant.states") {
		t.Error("mc.invariant.states not registered")
	}
}

// TestStateHoldsConnectives checks the direct valuation evaluator against
// every propositional connective.
func TestStateHoldsConnectives(t *testing.T) {
	b := ts.NewBuilder()
	s := b.State("s", "p")
	b.SetInit(s)
	b.AddIdle()
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for f, want := range map[string]bool{
		"p": true, "q": false, "true": true, "false": false, "!q": true,
		"p & q": false, "p | q": true, "p -> q": false, "q -> p": true,
		"p <-> q": false, "!(p <-> q)": true, "(p | q) & !(q & p)": true,
	} {
		got, err := mc.StateHolds(sys, s, ltl.MustParse(f))
		if err != nil || got != want {
			t.Errorf("%s: got %v (err %v), want %v", f, got, err, want)
		}
	}
}
