package omega

import (
	"context"

	"repro/internal/alphabet"
	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/word"
)

// Contains reports whether L(a) ⊇ L(b), exactly. On failure it returns a
// witness lasso in L(b) − L(a); on success the witness is the zero
// lasso, recognizable with word.Lasso.IsZero (a real witness always has
// a non-empty loop, the zero value never does).
func (a *Automaton) Contains(b *Automaton) (bool, word.Lasso, error) {
	return a.ContainsCtx(context.Background(), b)
}

// ContainsCtx is Contains with cooperative cancellation and resource
// governance. It decides containment lazily: the product of a and b is
// generated on the fly by a ProductExplorer in doubling waves, and the
// candidate-broken-pair SCC refinement runs after every wave over the
// states materialized so far, so a counterexample reachable in a few
// steps is returned after materializing a few dozen product states — the
// full product is only built when containment actually holds. Every
// materialized state is charged against the context's budget, exactly
// like the eager path. ContainsEagerCtx retains the materialize-then-
// search procedure as the differential-testing oracle.
//
// Method (shared with the eager path): on the synchronous product, a
// counterexample is a reachable cyclic set J accepted by b's (lifted)
// pairs and rejected by a's — i.e. for some a-pair i, J ∩ R_i = ∅ and
// J ⊄ P_i. For each candidate broken pair i the search restricts the
// graph to Q − R_i, adds the Streett pair (Q − P_i, ∅) forcing J ⊄ P_i,
// and runs the standard emptiness refinement with b's pairs. This stays
// polynomial and needs no Rabin complementation.
func (a *Automaton) ContainsCtx(ctx context.Context, b *Automaton) (bool, word.Lasso, error) {
	return a.lazyContainsCtx(ctx, b, defaultFirstWave)
}

// ContainsEager is ContainsEagerCtx with a background context.
func (a *Automaton) ContainsEager(b *Automaton) (bool, word.Lasso, error) {
	return a.ContainsEagerCtx(context.Background(), b)
}

// ContainsEagerCtx decides L(a) ⊇ L(b) by materializing the entire
// reachable product up front (IntersectCtx) and then searching it. It is
// retained as the oracle the differential test suite diffs the lazy
// ContainsCtx against — same verdicts, independent exploration order —
// and as the reference point for the states-materialized benchmarks.
func (a *Automaton) ContainsEagerCtx(ctx context.Context, b *Automaton) (bool, word.Lasso, error) {
	if !a.alpha.Equal(b.alpha) {
		return false, word.Lasso{}, errAlphabetMismatch("containment", a.alpha, b.alpha)
	}
	ctx, sp := obs.Start(ctx, "omega.contains.eager")
	sp.Int("left_states", a.NumStates()).Int("right_states", b.NumStates())
	defer sp.End()
	// Build the product structure with both pair lists lifted.
	prod, err := a.IntersectCtx(ctx, b)
	if err != nil {
		return false, word.Lasso{}, err
	}
	na := len(a.pairs)
	aPairs := prod.pairs[:na]
	bPairs := prod.pairs[na:]
	n := prod.NumStates()
	reach := prod.kern.Reachable()

	for _, broken := range aPairs {
		if err := budget.Poll(ctx, 1); err != nil {
			return false, word.Lasso{}, err
		}
		allowed := make([]bool, n)
		for q := 0; q < n; q++ {
			allowed[q] = reach[q] && !broken.R[q]
		}
		forcing := Pair{R: make([]bool, n), P: make([]bool, n)}
		for q := 0; q < n; q++ {
			forcing.R[q] = !broken.P[q]
		}
		search := prod.sharedWithPairs(append(append([]Pair{}, bPairs...), forcing))
		comp, err := search.findAcceptingSCCCtx(ctx, allowed)
		if err != nil {
			return false, word.Lasso{}, err
		}
		if comp == nil {
			continue
		}
		anchor := comp[0]
		prefix, ok := prod.pathWithin(prod.kern.Start(), anchor, nil)
		if !ok {
			continue
		}
		loop, ok := prod.coveringCycle(anchor, comp)
		if !ok {
			continue
		}
		return false, word.MustLasso(prefix, loop), nil
	}
	return true, word.Lasso{}, nil
}

// Equivalent reports whether L(a) = L(b), exactly. On failure the
// witness lasso is in the symmetric difference; on success it is the
// zero lasso (word.Lasso.IsZero).
func (a *Automaton) Equivalent(b *Automaton) (bool, word.Lasso, error) {
	return a.EquivalentCtx(context.Background(), b)
}

// EquivalentCtx is Equivalent with cooperative cancellation, built on
// the lazy ContainsCtx in both directions (see ContainsCtx).
func (a *Automaton) EquivalentCtx(ctx context.Context, b *Automaton) (bool, word.Lasso, error) {
	ok, w, err := a.ContainsCtx(ctx, b)
	if err != nil {
		return false, word.Lasso{}, err
	}
	if !ok {
		return false, w, nil
	}
	ok, w, err = b.ContainsCtx(ctx, a)
	if err != nil {
		return false, word.Lasso{}, err
	}
	if !ok {
		return false, w, nil
	}
	return true, word.Lasso{}, nil
}

// EquivalentEagerCtx is EquivalentCtx on the eager containment oracle,
// for differential testing.
func (a *Automaton) EquivalentEagerCtx(ctx context.Context, b *Automaton) (bool, word.Lasso, error) {
	ok, w, err := a.ContainsEagerCtx(ctx, b)
	if err != nil || !ok {
		return ok, w, err
	}
	return b.ContainsEagerCtx(ctx, a)
}

// IsUniversal reports whether the automaton accepts every infinite word.
func (a *Automaton) IsUniversal() (bool, error) {
	ok, _, err := a.Contains(Universal(a.alpha))
	return ok, err
}

// Universal returns a one-state automaton accepting Σ^ω.
func Universal(alpha *alphabet.Alphabet) *Automaton {
	row := make([]int, alpha.Size())
	return MustNew(alpha, [][]int{row}, 0, []Pair{{R: []bool{true}, P: []bool{true}}})
}

// Empty returns a one-state automaton accepting nothing.
func Empty(alpha *alphabet.Alphabet) *Automaton {
	row := make([]int, alpha.Size())
	return MustNew(alpha, [][]int{row}, 0, []Pair{{R: []bool{false}, P: []bool{false}}})
}
