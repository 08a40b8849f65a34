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
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/alphabet"
	"repro/internal/autkern"
	"repro/internal/budget"
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

// VerifyCtx is Verify under the caller's context: its "mc.verify" span
// nests under the span ctx carries, so a verification launched inside an
// engine request joins that request's trace even when it runs on a
// worker goroutine. The inner stages (negation, product, search,
// refinement) nest under "mc.verify".
func VerifyCtx(ctx context.Context, sys *ts.System, f ltl.Formula) (Result, error) {
	ctx, sp := obs.Start(ctx, "mc.verify")
	sp.Stringer("formula", f).Int("sys_states", sys.NumStates())
	defer sp.End()
	cntVerifyCalls.Inc()
	props := unionProps(sys, f)
	neg, err := negationAutomaton(ctx, f, props)
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

// negationAutomaton builds an automaton for ¬f over 2^props. Both
// compilations run under ctx, so they are charged to the request's
// budget, stop on cancellation and nest under the request's span.
func negationAutomaton(ctx context.Context, f ltl.Formula, props []string) (*omega.Automaton, error) {
	ctx, sp := obs.Start(ctx, "mc.negation")
	sp.Stringer("formula", f)
	defer sp.End()
	neg, errNeg := core.CompileFormulaCtx(ctx, ltl.Not{F: f}, props)
	if errNeg == nil {
		sp.Int("states", neg.NumStates()).Int("pairs", neg.NumPairs())
		return neg, nil
	}
	if ctx.Err() != nil || errors.Is(errNeg, budget.ErrBudgetExceeded) {
		// A governance abort is the request's answer, not a reason to
		// try the positive formula.
		return nil, errNeg
	}
	pos, errPos := core.CompileFormulaCtx(ctx, f, props)
	if errPos != nil {
		return nil, fmt.Errorf("mc: cannot compile ¬f (%v) nor f (%w)", errNeg, errPos)
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
// A node's row follows its system state's successor row (ts.System.Edges)
// edge for edge, so the transition taking row position i is that row's
// i-th transition index.
type product struct {
	sys    *ts.System
	aut    *omega.Automaton
	f      *autkern.Frontier
	inits  []int
	symIdx []int // per system state, its alphabet index in aut

	// Scratch of the fair-SCC search, allocated once per search and
	// reused by every refinement round. mark[n] == epoch makes node n a
	// member of the current node set, local[n] its position there; off
	// and adj hold the set's induced subgraph in local ids.
	mark  []uint32
	local []int32
	epoch uint32
	off   []int32
	adj   []int32
}

// node returns the (system state, automaton state) of product node i.
func (p *product) node(i int) (s, q int) {
	k := p.f.Key(i)
	return int(k[0]), int(k[1])
}

func (p *product) numNodes() int { return len(p.f.Rows()) }

func newProduct(ctx context.Context, sys *ts.System, aut *omega.Automaton, props []string) (*product, error) {
	_, sp := obs.Start(ctx, "mc.product")
	sp.Int("sys_states", sys.NumStates()).Int("aut_states", aut.NumStates())
	defer sp.End()
	p := &product{sys: sys, aut: aut}
	p.f = autkern.NewFrontier(2, fault.SiteMCLazy, lazyMetrics, p.successors)
	p.symIdx = make([]int, sys.NumStates())
	for s := range p.symIdx {
		sym := sys.Symbol(s, props)
		if p.symIdx[s] = aut.Alphabet().Index(sym); p.symIdx[s] < 0 {
			return nil, fmt.Errorf("mc: state %q symbol %q not in property alphabet", sys.StateName(s), sym)
		}
	}
	for _, s0 := range sys.Init() {
		q0 := aut.StepIndex(aut.Start(), p.symIdx[s0])
		p.inits = append(p.inits, p.f.Add([]int32{int32(s0), int32(q0)}))
	}
	return p, nil
}

// successors appends the product successors of node (s, q): for every
// edge of s's successor row, in order, the target s2 paired with the
// automaton's step on s2's symbol.
func (p *product) successors(key, dst []int32) []int32 {
	nq := int(key[1])
	_, to := p.sys.Edges(int(key[0]))
	for _, s2 := range to {
		dst = append(dst, int32(s2), int32(p.aut.StepIndex(nq, p.symIdx[s2])))
	}
	return dst
}

// members makes nodes (ascending) the current node set, numbering them
// 0, 1, ... in order. It invalidates the previous set.
func (p *product) members(nodes []int) {
	if n := p.numNodes(); len(p.mark) < n {
		p.mark = append(p.mark, make([]uint32, n-len(p.mark))...)
		p.local = append(p.local, make([]int32, n-len(p.local))...)
	}
	if p.epoch++; p.epoch == 0 {
		clear(p.mark)
		p.epoch = 1
	}
	for i, n := range nodes {
		p.mark[n], p.local[n] = p.epoch, int32(i)
	}
}

// in reports whether node n belongs to the current node set.
func (p *product) in(n int) bool { return p.mark[n] == p.epoch }

// searchFairAccepting looks for a fair computation of sys accepted by the
// automaton, returning it as a trace of system states. The product is
// explored in doubling waves, with the fair-SCC search re-run over the
// closed region after each wave, so a shallow counterexample is found
// after materializing a few dozen nodes; the full product is built only
// when no counterexample exists.
func searchFairAccepting(ctx context.Context, sys *ts.System, aut *omega.Automaton, props []string) (Trace, bool, error) {
	p, err := newProduct(ctx, sys, aut, props)
	if err != nil {
		return Trace{}, false, err
	}
	ctx, sp := obs.Start(ctx, "mc.search")
	defer sp.End()
	waves := 0
	var closed []int
	for limit := mcFirstWave; ; limit *= 2 {
		done, err := p.f.Explore(ctx, limit)
		if err != nil {
			return Trace{}, false, err
		}
		waves++
		for i := len(closed); i < p.f.Closed(); i++ {
			closed = append(closed, i)
		}
		comp, need := p.findFairAcceptingSCC(ctx, closed)
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

// findFairAcceptingSCC searches the subgraph induced by nodes (ascending)
// for a strongly connected node set C such that (i) a run with inf = C
// satisfies the automaton's Streett pairs, (ii) every weakly fair
// transition is either disabled somewhere in C or taken by an edge inside
// C, and (iii) every strongly fair transition is either enabled nowhere in
// C or taken inside C. It returns the set and the transition indices
// whose edges the witness loop must include.
//
// Tarjan runs over the induced subgraph alone, renumbered in ascending
// node order: its roots are tried and its edges followed in the same
// order as a pass over the whole product restricted to nodes would, so
// the components, and their completion order, are that pass's.
func (p *product) findFairAcceptingSCC(ctx context.Context, nodes []int) ([]int, []int) {
	p.members(nodes)
	rows := p.f.Rows()
	off, adj := append(p.off[:0], 0), p.adj[:0]
	for _, n := range nodes {
		for _, to := range rows[n] {
			if p.in(to) {
				adj = append(adj, p.local[to])
			}
		}
		off = append(off, int32(len(adj)))
	}
	p.off, p.adj = off, adj
	comps := autkern.SCCsFunc(len(nodes),
		func(q int) int { return int(off[q+1] - off[q]) },
		func(q, i int) int { return int(adj[int(off[q])+i]) },
		nil)
	// The scratch subgraph is dead from here on: refine's nested rounds
	// rebuild it for their own node sets.
	for _, comp := range comps {
		for i, l := range comp {
			comp[i] = nodes[l]
		}
		if len(comp) == 1 && !slices.Contains(rows[comp[0]], comp[0]) {
			continue // a single node without a self-loop has no cycle
		}
		if set, need := p.refine(ctx, comp); set != nil {
			return set, need
		}
	}
	return nil, nil
}

func (p *product) refine(ctx context.Context, comp []int) ([]int, []int) {
	// One refinement round: record its component size so the shrinking
	// sequence of candidate sets is visible in traces.
	ctx, sp := obs.Start(ctx, "mc.refine")
	sp.Int("component", len(comp))
	defer sp.End()
	cntRefineRounds.Inc()
	histRefineSizes.Observe(int64(len(comp)))
	p.members(comp)
	trans := p.sys.Transitions()
	// Per transition: whether an edge inside comp takes it, and at how
	// many of comp's nodes it is enabled.
	takenInside := make([]bool, len(trans))
	enabledAt := make([]int, len(trans))
	rows := p.f.Rows()
	for _, n := range comp {
		s, _ := p.node(n)
		et, _ := p.sys.Edges(s)
		for i, to := range rows[n] {
			if i == 0 || et[i] != et[i-1] {
				enabledAt[et[i]]++
			}
			if p.in(to) {
				takenInside[et[i]] = true
			}
		}
	}

	drop := make([]bool, len(comp)) // nodes the round narrows away
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
			for j, n := range comp {
				if _, q := p.node(n); !pr[q] {
					drop[j] = true
					narrowed = true
				}
			}
		}
	}

	// Fairness requirements.
	for ti, tr := range trans {
		if tr.Fair == ts.Unfair || takenInside[ti] || enabledAt[ti] == 0 {
			continue
		}
		switch tr.Fair {
		case ts.Weak:
			if enabledAt[ti] == len(comp) {
				// Continuously enabled, never taken, and no sub-component
				// can disable it: this component is hopeless.
				return nil, nil
			}
		case ts.Strong:
			// Restrict to nodes where the transition is disabled.
			for j, n := range comp {
				if s, _ := p.node(n); tr.Enabled(s) {
					drop[j] = true
					narrowed = true
				}
			}
		}
	}

	if !narrowed {
		// comp satisfies everything; the witness loop must include one
		// edge of every fair transition enabled within comp.
		for ti, tr := range trans {
			if tr.Fair != ts.Unfair && enabledAt[ti] > 0 && takenInside[ti] {
				needEdges = append(needEdges, ti)
			}
		}
		return comp, needEdges
	}
	var restrict []int
	for j, n := range comp {
		if !drop[j] {
			restrict = append(restrict, n)
		}
	}
	if len(restrict) == 0 {
		return nil, nil
	}
	return p.findFairAcceptingSCC(ctx, restrict)
}

// extractTrace builds a lasso of system states: a path from an initial
// node to the component, then a loop covering every node of the component
// and at least one edge of every needed transition.
func (p *product) extractTrace(comp []int, needTrans []int) (Trace, bool) {
	p.members(comp)
	prev := make([]int, p.numNodes())
	for i := range prev {
		prev[i] = -2 // unseen
	}
	anchor := comp[0]
	prefixNodes, ok := p.shortestPath(prev, p.inits, anchor, false)
	if !ok {
		return Trace{}, false
	}
	// Build the loop: visit every node of comp, then traverse one edge of
	// each needed transition, then return to the anchor.
	var loop []int
	cur := anchor
	visit := func(target int) bool {
		seg, ok := p.shortestPath(prev, []int{cur}, target, true)
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
			s, _ := p.node(from)
			et, _ := p.sys.Edges(s)
			for i, to := range rows[from] {
				if int(et[i]) == ti && p.in(to) {
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
		if !slices.Contains(rows[anchor], anchor) {
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
// the sources to the target, breadth-first, staying within the current
// node set when within is set. prev is scratch sized to the product, all
// -2 (unseen) on entry and again on return.
func (p *product) shortestPath(prev []int, sources []int, target int, within bool) ([]int, bool) {
	var queue []int
	defer func() {
		for _, n := range queue {
			prev[n] = -2
		}
	}()
	for _, s := range sources {
		if within && !p.in(s) {
			continue
		}
		if prev[s] == -2 {
			prev[s] = -1
			queue = append(queue, s)
		}
	}
	rows := p.f.Rows()
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		if n == target {
			var rev []int
			for cur := n; cur != -1; cur = prev[cur] {
				rev = append(rev, cur)
			}
			slices.Reverse(rev)
			return rev, true
		}
		for _, to := range rows[n] {
			if within && !p.in(to) {
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
