package omega

import (
	"context"
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/autkern"
	"repro/internal/fault"
	"repro/internal/obs"
)

var (
	cntLazyMaterialized = obs.NewCounter("omega.lazy.states_materialized")
	cntLazyEarlyExits   = obs.NewCounter("omega.lazy.early_exits")
	maxLazyStates       = obs.NewGauge("omega.lazy.max_states")
)

// defaultFirstWave is the number of product states the first exploration
// wave of the lazy decision procedures materializes; each following wave
// doubles the bound. Small enough that a shallow counterexample pays for
// a few dozen states instead of the whole product, large enough that the
// per-wave SCC searches amortize (geometric waves bound the total search
// work by ~2× one full-product search).
const defaultFirstWave = 64

// ProductExplorer generates the synchronous product of one or more
// Streett automata state by state, on demand, instead of materializing
// the whole reachable product up front the way IntersectCtx does. It is
// the successor-function abstraction behind the lazy decision procedures
// (ContainsCtx, EquivalentCtx, IntersectWitnessCtx): they interleave
// exploration waves with SCC refinement on the explored region and stop
// the moment a witness appears, so a counterexample reachable in a few
// steps never pays for a product that is orders of magnitude larger.
//
// The exploration itself — interning, the closed BFS prefix, per-state
// governance (fault.SiteOmegaLazy, cancellation, one budget state per
// closed state, exactly the accounting of the eager product) — is an
// autkern.Frontier over the tuple of factor states; this
// type adds the product's transition function and its acceptance.
//
// The acceptance lists of all factors are lifted to the product (Streett
// conditions are conjunctive, so the product needs no further
// machinery); PairRange locates the pairs of one factor inside the lifted
// list. An explorer is not safe for concurrent use; concurrent queries
// each build their own.
type ProductExplorer struct {
	autos []*Automaton
	alpha *alphabet.Alphabet
	k     int // alphabet size
	f     *autkern.Frontier

	pairs      []Pair // lifted acceptance of states 0..lifted-1
	lifted     int
	pairOffset []int // pairOffset[f] = first lifted pair of factor f
}

// errAlphabetMismatch builds the diagnostic for a product, containment
// or equivalence query over two different alphabets. Both alphabets are
// named so the caller can see which symbol sets disagree.
func errAlphabetMismatch(op string, a, b *alphabet.Alphabet) error {
	return fmt.Errorf("omega: %s over different alphabets %v and %v", op, a, b)
}

// NewProductExplorer validates the factors (at least one, all over one
// alphabet) and discovers the joint start state. Nothing is materialized
// yet; ExploreCtx drives the construction.
func NewProductExplorer(autos ...*Automaton) (*ProductExplorer, error) {
	if len(autos) == 0 {
		return nil, fmt.Errorf("omega: product explorer needs at least one automaton")
	}
	alpha := autos[0].alpha
	for _, a := range autos[1:] {
		if !a.alpha.Equal(alpha) {
			return nil, errAlphabetMismatch("product", alpha, a.alpha)
		}
	}
	e := &ProductExplorer{autos: autos, alpha: alpha, k: alpha.Size()}
	e.f = autkern.NewFrontier(len(autos), fault.SiteOmegaLazy, cntLazyMaterialized, e.successors)
	npairs := 0
	for _, a := range autos {
		e.pairOffset = append(e.pairOffset, npairs)
		npairs += len(a.pairs)
	}
	e.pairOffset = append(e.pairOffset, npairs)
	e.pairs = make([]Pair, npairs)
	start := make([]int32, len(autos))
	for f, a := range autos {
		start[f] = int32(a.kern.Start())
	}
	e.f.Add(start)
	return e, nil
}

// successors appends the product successor of tuple t on every symbol,
// in symbol order: the state's row is its transition row.
func (e *ProductExplorer) successors(t, dst []int32) []int32 {
	for s := 0; s < e.k; s++ {
		for f, a := range e.autos {
			dst = append(dst, int32(a.kern.Step(int(t[f]), s)))
		}
	}
	return dst
}

// ExploreCtx materializes product states in discovery order until either
// the whole reachable product is closed (done=true) or at least limit
// states are closed, one governed state at a time; see
// autkern.Frontier.Explore.
func (e *ProductExplorer) ExploreCtx(ctx context.Context, limit int) (done bool, err error) {
	done, err = e.f.Explore(ctx, limit)
	maxLazyStates.Max(int64(e.f.Closed()))
	return done, err
}

// Materialized returns the number of closed states — states whose
// successor rows have been computed and whose cost has been charged.
func (e *ProductExplorer) Materialized() int { return e.f.Closed() }

// Discovered returns the number of states interned so far (closed states
// plus the unexplored frontier).
func (e *ProductExplorer) Discovered() int { return len(e.f.Rows()) }

// PairRange returns the half-open range [lo, hi) of factor f's lifted
// pairs inside the product's acceptance list.
func (e *ProductExplorer) PairRange(f int) (lo, hi int) {
	return e.pairOffset[f], e.pairOffset[f+1]
}

// StateTuple returns the factor states of product state i.
func (e *ProductExplorer) StateTuple(i int) []int {
	out := make([]int, len(e.autos))
	for f, q := range e.f.Key(i) {
		out[f] = int(q)
	}
	return out
}

// view returns the explored region as an automaton over every discovered
// state, together with the closed-region membership vector. Closed
// states carry their real successor rows; frontier states carry nil rows
// (no outgoing edges), so any search restricted to the closed region —
// which the membership vector delimits — sees exactly a subgraph of the
// full product and never a fabricated edge. Cycles and paths found in
// that subgraph are therefore genuine cycles and paths of the full
// product, which is what makes early exits sound. The view shares the
// explorer's row and acceptance storage; further exploration writes rows
// the view's slices alias, so a view is only valid until the next
// ExploreCtx call — the lazy procedures build a fresh one per wave.
func (e *ProductExplorer) view() (*Automaton, []bool) {
	rows := e.f.Rows()
	n := len(rows)
	// Lift every factor's acceptance bits onto the states discovered
	// since the last view.
	for ; e.lifted < n; e.lifted++ {
		for f, q := range e.f.Key(e.lifted) {
			for j, p := range e.autos[f].pairs {
				lp := &e.pairs[e.pairOffset[f]+j]
				lp.R = append(lp.R, p.R[q])
				lp.P = append(lp.P, p.P[q])
			}
		}
	}
	pairs := make([]Pair, len(e.pairs))
	for i, p := range e.pairs {
		pairs[i] = Pair{R: p.R[:n:n], P: p.P[:n:n]}
	}
	v := &Automaton{
		alpha: e.alpha,
		kern:  autkern.New(rows[:n:n], e.k, 0),
		pairs: pairs,
	}
	closed := make([]bool, n)
	for i := 0; i < e.f.Closed(); i++ {
		closed[i] = true
	}
	return v, closed
}
