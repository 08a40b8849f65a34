package omega_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/lang"
	"repro/internal/omega"
)

func TestReducePreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	for i := 0; i < 40; i++ {
		a := gen.RandomStreett(rng, ab, 3+rng.Intn(6), 1+rng.Intn(2), 0.3, 0.4)
		r := a.Reduce(context.Background())
		if r.NumStates() > a.NumStates() {
			t.Fatalf("Reduce grew the automaton: %d -> %d", a.NumStates(), r.NumStates())
		}
		eq, ce, err := a.Equivalent(r)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("Reduce changed the language (witness %v)", ce)
		}
	}
}

func TestReduceMergesDuplicates(t *testing.T) {
	// Two copies of the same Büchi automaton glued side by side: the
	// quotient must collapse back to the original size.
	base := lang.R(lang.MustRegex(".*b", ab)) // 2 states
	n := base.NumStates()
	k := base.Alphabet().Size()
	trans := make([][]int, 2*n)
	pair := omega.Pair{R: make([]bool, 2*n), P: make([]bool, 2*n)}
	rBase, pBase := base.PairVectors(0)
	for q := 0; q < n; q++ {
		rowA := make([]int, k)
		rowB := make([]int, k)
		for s := 0; s < k; s++ {
			// Copy A feeds into copy B and vice versa: still bisimilar.
			rowA[s] = base.StepIndex(q, s) + n
			rowB[s] = base.StepIndex(q, s)
		}
		trans[q] = rowA
		trans[q+n] = rowB
		pair.R[q], pair.R[q+n] = rBase[q], rBase[q]
		pair.P[q], pair.P[q+n] = pBase[q], pBase[q]
	}
	doubled := omega.MustNew(base.Alphabet(), trans, base.Start(), []omega.Pair{pair})
	reduced := doubled.Reduce(context.Background())
	if reduced.NumStates() != n {
		t.Errorf("doubled automaton reduced to %d states, want %d", reduced.NumStates(), n)
	}
	eq, _, err := reduced.Equivalent(base)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("reduction changed the language")
	}
}

func TestReduceIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	for i := 0; i < 20; i++ {
		a := gen.RandomStreett(rng, ab, 3+rng.Intn(5), 1, 0.3, 0.4)
		once := a.Reduce(context.Background())
		twice := once.Reduce(context.Background())
		if once.NumStates() != twice.NumStates() {
			t.Fatalf("Reduce not idempotent: %d -> %d", once.NumStates(), twice.NumStates())
		}
	}
}
