package core_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
)

// TestRandomFragmentSoundness generates random formulas inside the
// normalizable fragment and verifies, for each, that the compiled
// automaton agrees with the evaluator on an exhaustive small corpus, and
// that the normal form reconstructs to an equivalent formula. This is
// the broadest single correctness test in the repository: it exercises
// the normalizer's rewrite laws, the past→DFA compiler, the linguistic
// constructors, and the Streett semantics together.
func TestRandomFragmentSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	alpha, err := alphabet.Valuations([]string{"p", "q"})
	if err != nil {
		t.Fatal(err)
	}
	corpus := gen.Lassos(alpha, 2, 2)
	checked := 0
	for iter := 0; iter < 150; iter++ {
		f := gen.RandomNormalizable(rng, []string{"p", "q"}, 2)
		aut, err := core.CompileFormula(f, []string{"p", "q"})
		if err != nil {
			if errors.Is(err, core.ErrNotNormalizable) {
				continue // generator occasionally builds an unsupported nesting
			}
			t.Fatalf("compile %q: %v", f.String(), err)
		}
		nf, err := core.Normalize(context.Background(), f)
		if err != nil {
			t.Fatalf("normalize after successful compile: %v", err)
		}
		g := nf.Formula()
		for _, w := range corpus {
			want, err := eval.Holds(f, w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := aut.Accepts(w)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("iter %d: %q automaton wrong on %v (want %v)\nNF: %v",
					iter, f.String(), w, want, nf)
			}
			nfVal, err := eval.Holds(g, w)
			if err != nil {
				t.Fatal(err)
			}
			if nfVal != want {
				t.Fatalf("iter %d: %q normal form %q wrong on %v (want %v)",
					iter, f.String(), nf.String(), w, want)
			}
		}
		checked++
	}
	if checked < 100 {
		t.Errorf("only %d/150 random formulas were normalizable — generator drifted", checked)
	}
}
