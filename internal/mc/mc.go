// Package mc is the model checker connecting the paper's two halves: it
// decides whether every fair computation of a transition system has a
// temporal property, by intersecting the system with an automaton for the
// negated property and searching the product for a fair accepting cycle
// (a counterexample computation).
//
// Alongside the automata-based checker, the package exposes the two proof
// principles the paper associates with the hierarchy: the invariance
// (implicit-induction) rule for safety and a well-founded-ranking
// extraction for guarantee/response properties.
package mc

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/alphabet"
	"repro/internal/autkern"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/omega"
	"repro/internal/ts"
)

var (
	cntVerifyCalls  = obs.NewCounter("mc.verify.calls")
	cntRefineRounds = obs.NewCounter("mc.refine.rounds")
	histRefineSizes = obs.NewHistogram("mc.refine.component_size")
	lazyMetrics     = autkern.NewFrontierMetrics("mc.lazy.nodes_materialized", "mc.parallel")
)

// mcFirstWave is the node bound of the first lazy exploration wave of the
// fair product; each following wave doubles it (see searchFairAccepting).
const mcFirstWave = 64

// Trace is a lasso-shaped computation of the system: the states of the
// transient prefix followed by the repeating loop.
type Trace struct {
	Prefix []int
	Loop   []int
}

// Names renders the trace with state names.
func (t Trace) Names(sys *ts.System) (prefix, loop []string) {
	for _, s := range t.Prefix {
		prefix = append(prefix, sys.StateName(s))
	}
	for _, s := range t.Loop {
		loop = append(loop, sys.StateName(s))
	}
	return prefix, loop
}

// Result reports a verification outcome. When the property fails,
// Counterexample is a fair computation violating it.
type Result struct {
	Holds          bool
	Counterexample *Trace
}

// Verify decides sys ⊨ f: every fair computation of the system satisfies
// the formula. The negation is compiled to a deterministic Streett
// automaton (falling back to single-pair complementation of the positive
// automaton when ¬f is outside the normalizable fragment), and the fair
// product is checked for emptiness.
func Verify(sys *ts.System, f ltl.Formula) (Result, error) {
	return VerifyCtx(context.Background(), sys, f)
}

// VerifyCtx is Verify with the caller's context threaded into the root
// span, so a verification launched inside an engine request inherits its
// TraceID even when it runs on a worker goroutine. The inner stages
// (negation, product, search, refinement) nest under this span and
// inherit the trace implicitly.
func VerifyCtx(ctx context.Context, sys *ts.System, f ltl.Formula) (Result, error) {
	sp := obs.StartIn(ctx, "mc.verify").Stringer("formula", f).Int("sys_states", sys.NumStates())
	defer sp.End()
	cntVerifyCalls.Inc()
	props := unionProps(sys, f)
	neg, err := negationAutomaton(f, props)
	if err != nil {
		return Result{}, err
	}
	trace, found, err := searchFairAccepting(ctx, sys, neg, props)
	if err != nil {
		return Result{}, err
	}
	sp.Bool("holds", !found)
	if found {
		return Result{Holds: false, Counterexample: &trace}, nil
	}
	return Result{Holds: true}, nil
}

// FairComputation returns some fair computation of the system (every
// system with a reachable fair cycle has one; AddIdle guarantees it).
func FairComputation(sys *ts.System) (Trace, bool) {
	props := sys.Props()
	alpha, err := alphabet.Valuations(props)
	if err != nil {
		return Trace{}, false
	}
	tr, ok, err := searchFairAccepting(context.Background(), sys, omega.Universal(alpha), props)
	if err != nil {
		return Trace{}, false
	}
	return tr, ok
}

func unionProps(sys *ts.System, f ltl.Formula) []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range ltl.Props(f) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// negationAutomaton builds an automaton for ¬f over 2^props.
func negationAutomaton(f ltl.Formula, props []string) (*omega.Automaton, error) {
	sp := obs.Start("mc.negation").Stringer("formula", f)
	defer sp.End()
	neg, errNeg := core.CompileFormula(ltl.Not{F: f}, props)
	if errNeg == nil {
		sp.Int("states", neg.NumStates()).Int("pairs", neg.NumPairs())
		return neg, nil
	}
	pos, errPos := core.CompileFormula(f, props)
	if errPos != nil {
		return nil, fmt.Errorf("mc: cannot compile ¬f (%v) nor f (%v)", errNeg, errPos)
	}
	comp, err := pos.ComplementSinglePair()
	if err != nil {
		return nil, fmt.Errorf("mc: ¬f not normalizable (%v) and f's automaton is multi-pair (%v)", errNeg, err)
	}
	sp.Int("states", comp.NumStates()).Int("pairs", comp.NumPairs()).Bool("complemented", true)
	return comp, nil
}

// product is the synchronous product of the system and a property
// automaton: node = (system state, automaton state after reading it).
// Nodes are materialized lazily by an autkern.Frontier over that pair, in
// discovery order: nodes below Closed() have final edge rows, nodes at or
// above it form the unexplored frontier (nil rows). The closed region is
// therefore always a BFS-reachable prefix of the full product, and any
// fair accepting component found inside it is a genuine counterexample of
// the full product — refine inspects only component-internal structure
// (automaton pairs over the component's q states, fairness enabledness
// over its system states, and edges between component nodes, all of which
// are closed), so early exits before full construction are sound. Only
// the "property holds" verdict requires the whole reachable product.
//
// A node's row lists its successors transition by transition, so the
// transition taking each edge depends only on the node's system state;
// edgeTrans recovers it instead of the row storing it per edge.
type product struct {
	sys    *ts.System
	aut    *omega.Automaton
	f      *autkern.Frontier
	inits  []int
	symIdx []int     // per system state, its alphabet index in aut
	trans  [][]int32 // per system state, memoized by edgeTrans
}

// node returns the (system state, automaton state) of product node i.
func (p *product) node(i int) (s, q int) {
	k := p.f.Key(i)
	return int(k[0]), int(k[1])
}

func (p *product) numNodes() int { return len(p.f.Rows()) }

func newProduct(sys *ts.System, aut *omega.Automaton, props []string) (*product, error) {
	sp := obs.Start("mc.product").Int("sys_states", sys.NumStates()).Int("aut_states", aut.NumStates())
	defer sp.End()
	p := &product{sys: sys, aut: aut}
	p.f = autkern.NewFrontier(2, fault.SiteMCLazy, lazyMetrics, p.successors)
	autSym := make([]alphabet.Symbol, sys.NumStates())
	p.symIdx = make([]int, sys.NumStates())
	for s := 0; s < sys.NumStates(); s++ {
		autSym[s] = sys.Symbol(s, props)
		p.symIdx[s] = aut.Alphabet().Index(autSym[s])
		if p.symIdx[s] < 0 {
			return nil, fmt.Errorf("mc: state %q symbol %q not in property alphabet", sys.StateName(s), autSym[s])
		}
	}
	for _, s0 := range sys.Init() {
		q0 := aut.Step(aut.Start(), autSym[s0])
		p.inits = append(p.inits, p.f.Add([]int32{int32(s0), int32(q0)}))
	}
	return p, nil
}

// successors appends the product successors of node (s, q): for every
// transition in order, each system successor s2 paired with the
// automaton's step on s2's symbol.
func (p *product) successors(key, dst []int32) []int32 {
	ns, nq := int(key[0]), int(key[1])
	for _, tr := range p.sys.Transitions() {
		for _, s2 := range tr.SuccessorsShared(ns) {
			dst = append(dst, int32(s2), int32(p.aut.StepIndex(nq, p.symIdx[s2])))
		}
	}
	return dst
}

// edgeTrans returns, per position of node n's row, the index of the
// transition taking that edge. Memoized per system state; the search and
// trace extraction call it single-threaded, after exploration.
func (p *product) edgeTrans(n int) []int32 {
	s, _ := p.node(n)
	if p.trans == nil {
		p.trans = make([][]int32, p.sys.NumStates())
	}
	if p.trans[s] == nil {
		l := make([]int32, 0, len(p.f.Rows()[n]))
		for ti, tr := range p.sys.Transitions() {
			for range tr.SuccessorsShared(s) {
				l = append(l, int32(ti))
			}
		}
		p.trans[s] = l
	}
	return p.trans[s]
}

// searchFairAccepting looks for a fair computation of sys accepted by the
// automaton, returning it as a trace of system states. The product is
// explored in doubling waves, with the fair-SCC search re-run over the
// closed region after each wave, so a shallow counterexample is found
// after materializing a few dozen nodes; the full product is built only
// when no counterexample exists.
func searchFairAccepting(ctx context.Context, sys *ts.System, aut *omega.Automaton, props []string) (Trace, bool, error) {
	p, err := newProduct(sys, aut, props)
	if err != nil {
		return Trace{}, false, err
	}
	sp := obs.Start("mc.search")
	defer sp.End()
	waves := 0
	for limit := mcFirstWave; ; limit *= 2 {
		done, err := p.f.Explore(ctx, limit)
		if err != nil {
			return Trace{}, false, err
		}
		waves++
		allowed := make([]bool, p.numNodes())
		for i := 0; i < p.f.Closed(); i++ {
			allowed[i] = true
		}
		comp, need := p.findFairAcceptingSCC(allowed)
		if comp == nil && !done {
			continue
		}
		sp.Bool("found", comp != nil).
			Int("nodes_materialized", p.f.Closed()).Int("waves", waves)
		if comp == nil {
			return Trace{}, false, nil
		}
		if !done {
			sp.Bool("early_exit", true)
		}
		tr, ok := p.extractTrace(comp, need)
		return tr, ok, nil
	}
}

// findFairAcceptingSCC searches for a strongly connected node set C such
// that (i) a run with inf = C satisfies the automaton's Streett pairs,
// (ii) every weakly fair transition is either disabled somewhere in C or
// taken by an edge inside C, and (iii) every strongly fair transition is
// either enabled nowhere in C or taken inside C. It returns the set and
// the transition indices whose edges the witness loop must include.
func (p *product) findFairAcceptingSCC(allowed []bool) ([]int, []int) {
	rows := p.f.Rows()
	deg := func(q int) int { return len(rows[q]) }
	edge := func(q, i int) int { return rows[q][i] }
	for _, comp := range autkern.SCCsFunc(p.numNodes(), deg, edge, allowed) {
		if !autkern.CyclicFunc(p.numNodes(), comp, deg, edge) {
			continue
		}
		if set, need := p.refine(comp); set != nil {
			return set, need
		}
	}
	return nil, nil
}

func (p *product) refine(comp []int) ([]int, []int) {
	// One refinement round: record its component size so the shrinking
	// sequence of candidate sets is visible in traces.
	sp := obs.Start("mc.refine").Int("component", len(comp))
	defer sp.End()
	cntRefineRounds.Inc()
	histRefineSizes.Observe(int64(len(comp)))
	inComp := make([]bool, p.numNodes())
	for _, n := range comp {
		inComp[n] = true
	}
	takenInside := make([]bool, len(p.sys.Transitions()))
	rows := p.f.Rows()
	for _, n := range comp {
		trans := p.edgeTrans(n)
		for i, to := range rows[n] {
			if inComp[to] {
				takenInside[trans[i]] = true
			}
		}
	}

	restrict := make([]bool, p.numNodes())
	for _, n := range comp {
		restrict[n] = true
	}
	narrowed := false
	var needEdges []int

	// Streett pairs of the automaton component.
	for i := 0; i < p.aut.NumPairs(); i++ {
		r, pr := p.aut.PairVectors(i)
		meetsR, inP := false, true
		for _, n := range comp {
			_, q := p.node(n)
			if r[q] {
				meetsR = true
			}
			if !pr[q] {
				inP = false
			}
		}
		if !meetsR && !inP {
			for _, n := range comp {
				if _, q := p.node(n); !pr[q] {
					restrict[n] = false
					narrowed = true
				}
			}
		}
	}

	// Fairness requirements.
	for ti, tr := range p.sys.Transitions() {
		if tr.Fair == ts.Unfair || takenInside[ti] {
			continue
		}
		enabledSomewhere, enabledEverywhere := false, true
		for _, n := range comp {
			if s, _ := p.node(n); tr.Enabled(s) {
				enabledSomewhere = true
			} else {
				enabledEverywhere = false
			}
		}
		switch tr.Fair {
		case ts.Weak:
			if enabledEverywhere {
				// Continuously enabled, never taken, and no sub-component
				// can disable it: this component is hopeless.
				return nil, nil
			}
		case ts.Strong:
			if enabledSomewhere {
				// Restrict to nodes where the transition is disabled.
				for _, n := range comp {
					if s, _ := p.node(n); tr.Enabled(s) {
						restrict[n] = false
						narrowed = true
					}
				}
			}
		}
	}

	if !narrowed {
		// comp satisfies everything; the witness loop must include one
		// edge of every fair transition enabled within comp.
		for ti, tr := range p.sys.Transitions() {
			if tr.Fair == ts.Unfair {
				continue
			}
			enabled := false
			for _, n := range comp {
				if s, _ := p.node(n); tr.Enabled(s) {
					enabled = true
					break
				}
			}
			if enabled && takenInside[ti] {
				needEdges = append(needEdges, ti)
			}
		}
		return comp, needEdges
	}
	count := 0
	for _, ok := range restrict {
		if ok {
			count++
		}
	}
	if count == 0 {
		return nil, nil
	}
	return p.findFairAcceptingSCC(restrict)
}

// extractTrace builds a lasso of system states: a path from an initial
// node to the component, then a loop covering every node of the component
// and at least one edge of every needed transition.
func (p *product) extractTrace(comp []int, needTrans []int) (Trace, bool) {
	inComp := make([]bool, p.numNodes())
	for _, n := range comp {
		inComp[n] = true
	}
	anchor := comp[0]
	prefixNodes, ok := p.shortestPath(p.inits, anchor, nil)
	if !ok {
		return Trace{}, false
	}
	// Build the loop: visit every node of comp, then traverse one edge of
	// each needed transition, then return to the anchor.
	var loop []int
	cur := anchor
	visit := func(target int) bool {
		seg, ok := p.shortestPath([]int{cur}, target, inComp)
		if !ok {
			return false
		}
		loop = append(loop, seg[1:]...) // drop the duplicated start node
		cur = target
		return true
	}
	for _, n := range comp {
		if !visit(n) {
			return Trace{}, false
		}
	}
	rows := p.f.Rows()
	for _, ti := range needTrans {
		// Find an edge of transition ti inside comp and route through it.
		found := false
		for _, from := range comp {
			trans := p.edgeTrans(from)
			for i, to := range rows[from] {
				if int(trans[i]) == ti && inComp[to] {
					if !visit(from) {
						return Trace{}, false
					}
					loop = append(loop, to)
					cur = to
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			return Trace{}, false
		}
	}
	if !visit(anchor) {
		return Trace{}, false
	}
	if len(loop) == 0 {
		// Singleton component with a self-loop.
		selfLoop := false
		for _, to := range rows[anchor] {
			if to == anchor {
				selfLoop = true
				break
			}
		}
		if !selfLoop {
			return Trace{}, false
		}
		loop = []int{anchor}
	}
	tr := Trace{}
	for _, n := range prefixNodes {
		s, _ := p.node(n)
		tr.Prefix = append(tr.Prefix, s)
	}
	for _, n := range loop {
		s, _ := p.node(n)
		tr.Loop = append(tr.Loop, s)
	}
	return tr, true
}

// shortestPath returns a node path (inclusive of endpoints) from any of
// the sources to the target, staying within `within` when non-nil.
func (p *product) shortestPath(sources []int, target int, within []bool) ([]int, bool) {
	prev := make([]int, p.numNodes())
	for i := range prev {
		prev[i] = -2 // unseen
	}
	var queue []int
	for _, s := range sources {
		if within != nil && !within[s] {
			continue
		}
		if prev[s] == -2 {
			prev[s] = -1
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == target {
			var rev []int
			for cur := n; cur != -1; cur = prev[cur] {
				rev = append(rev, cur)
			}
			out := make([]int, len(rev))
			for i := range rev {
				out[i] = rev[len(rev)-1-i]
			}
			return out, true
		}
		for _, to := range p.f.Rows()[n] {
			if within != nil && !within[to] {
				continue
			}
			if prev[to] == -2 {
				prev[to] = n
				queue = append(queue, to)
			}
		}
	}
	return nil, false
}
