package omega

import (
	"context"
	"fmt"

	"repro/internal/autkern"
	"repro/internal/budget"
	"repro/internal/fault"
	"repro/internal/obs"
)

var (
	cntProductStates = obs.NewCounter("omega.product.states")
	maxProductStates = obs.NewGauge("omega.product.max_states")
)

// Intersect returns the synchronous product automaton, accepting
// L(a) ∩ L(b): the Streett lists of both factors are lifted to the product
// (Streett conditions are conjunctive, so the product needs no further
// machinery). Only reachable product states are materialized.
func (a *Automaton) Intersect(b *Automaton) (*Automaton, error) {
	return a.IntersectCtx(context.Background(), b)
}

// IntersectCtx is Intersect with resource governance: every materialized
// product state is charged against the context's budget, so a product
// blowup over a chain of intersections aborts with
// budget.ErrBudgetExceeded instead of exhausting memory.
func (a *Automaton) IntersectCtx(ctx context.Context, b *Automaton) (*Automaton, error) {
	if !a.alpha.Equal(b.alpha) {
		return nil, fmt.Errorf("omega: product over different alphabets %v and %v", a.alpha, b.alpha)
	}
	ctx, sp := obs.Start(ctx, "omega.product")
	sp.Int("left_states", a.NumStates()).Int("right_states", b.NumStates()).Int("alphabet", a.alpha.Size())
	defer sp.End()
	k := a.alpha.Size()
	in := autkern.NewPairInterner()
	in.Intern(a.kern.Start(), b.kern.Start())
	var trans [][]int
	for i := 0; i < in.Len(); i++ {
		if err := fault.Hit(fault.SiteOmegaProduct); err != nil {
			return nil, err
		}
		if err := budget.Poll(ctx, 0); err != nil {
			return nil, err
		}
		if err := budget.ChargeStates(ctx, 1); err != nil {
			return nil, err
		}
		x, y := in.Pair(i)
		row := make([]int, k)
		for s := 0; s < k; s++ {
			row[s] = in.Intern(a.kern.Step(x, s), b.kern.Step(y, s))
		}
		trans = append(trans, row)
	}
	n := in.Len()
	pairs := make([]Pair, 0, len(a.pairs)+len(b.pairs))
	for _, p := range a.pairs {
		lifted := Pair{R: make([]bool, n), P: make([]bool, n)}
		for i := 0; i < n; i++ {
			x, _ := in.Pair(i)
			lifted.R[i] = p.R[x]
			lifted.P[i] = p.P[x]
		}
		pairs = append(pairs, lifted)
	}
	for _, p := range b.pairs {
		lifted := Pair{R: make([]bool, n), P: make([]bool, n)}
		for i := 0; i < n; i++ {
			_, y := in.Pair(i)
			lifted.R[i] = p.R[y]
			lifted.P[i] = p.P[y]
		}
		pairs = append(pairs, lifted)
	}
	labels := make([]string, n)
	for i := 0; i < n; i++ {
		x, y := in.Pair(i)
		labels[i] = a.Label(x) + "|" + b.Label(y)
	}
	out, err := New(a.alpha, trans, 0, pairs)
	if err != nil {
		return nil, err
	}
	out.labels = labels
	sp.Int("states", n).Int("pairs", len(pairs))
	cntProductStates.Add(int64(n))
	maxProductStates.Max(int64(n))
	return out, nil
}

// IntersectAll folds Intersect over a non-empty list of automata.
func IntersectAll(autos ...*Automaton) (*Automaton, error) {
	return IntersectAllCtx(context.Background(), autos...)
}

// IntersectAllCtx is IntersectAll with resource governance threaded into
// every pairwise product.
func IntersectAllCtx(ctx context.Context, autos ...*Automaton) (*Automaton, error) {
	if len(autos) == 0 {
		return nil, fmt.Errorf("omega: IntersectAll needs at least one automaton")
	}
	out := autos[0]
	for _, next := range autos[1:] {
		var err error
		out, err = out.IntersectCtx(ctx, next)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ComplementSinglePair complements a single-pair Streett automaton. The
// complement of "inf∩R≠∅ ∨ inf⊆P" is "inf∩R=∅ ∧ inf⊄P", which is the
// 2-pair Streett condition (∅, Q−R) ∧ (Q−P, Q). General multi-pair
// complementation would need a Rabin detour and is not required by the
// paper's constructions.
func (a *Automaton) ComplementSinglePair() (*Automaton, error) {
	if len(a.pairs) != 1 {
		return nil, fmt.Errorf("omega: ComplementSinglePair on %d pairs", len(a.pairs))
	}
	n := a.NumStates()
	p := a.pairs[0]
	notR := make([]bool, n)
	notP := make([]bool, n)
	none := make([]bool, n)
	for q := 0; q < n; q++ {
		notR[q] = !p.R[q]
		notP[q] = !p.P[q]
	}
	pairs := []Pair{
		{R: none, P: notR}, // inf ⊆ Q−R, i.e. inf∩R=∅
		{R: notP, P: none}, // inf ∩ (Q−P) ≠ ∅, i.e. inf ⊄ P
	}
	return a.withPairsShared(pairs)
}

// WithPairs returns an automaton over the same transition structure
// (sharing the kernel and its cached analyses) with a different
// acceptance list.
func (a *Automaton) WithPairs(pairs []Pair) (*Automaton, error) {
	return a.withPairsShared(pairs)
}

// SafetyClosure returns an automaton for A(Pref(Π)), the paper's safety
// closure (topologically, the closure cl(Π)): a run is accepted iff it
// never enters a dead state. The result is a safety automaton (one pair
// with R = ∅ and P = the live states).
func (a *Automaton) SafetyClosure() *Automaton {
	live := a.LiveStates()
	none := make([]bool, a.NumStates())
	out, err := a.withPairsShared([]Pair{{R: none, P: live}})
	if err != nil {
		panic(err)
	}
	return out
}

// LivenessExtension returns an automaton for the paper's liveness
// extension 𝓛(Π) = Π ∪ E(¬Pref(Π)): every run that enters a dead state is
// additionally accepted. Since the dead region is transition-closed, this
// is achieved by adding it to every P-set.
func (a *Automaton) LivenessExtension() *Automaton {
	live := a.LiveStates()
	pairs := a.Pairs()
	for i := range pairs {
		for q := range pairs[i].P {
			if !live[q] {
				pairs[i].P[q] = true
			}
		}
	}
	out, err := a.withPairsShared(pairs)
	if err != nil {
		panic(err)
	}
	return out
}

// IsLivenessProperty reports whether the automaton's language is a
// liveness property: Pref(Π) = Σ⁺, i.e. every reachable state is live.
func (a *Automaton) IsLivenessProperty() bool {
	live := a.LiveStates()
	for q, reach := range a.kern.Reachable() {
		if reach && !live[q] {
			return false
		}
	}
	return true
}
