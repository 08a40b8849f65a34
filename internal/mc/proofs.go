package mc

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/budget"
	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/ts"
)

// This file implements the two proof principles the paper attaches to the
// hierarchy (§1): the invariance rule for safety properties (implicit
// computational induction) and well-founded ranking for guarantee- and
// response-style properties (explicit structural induction).

var cntInvariantStates = obs.NewCounter("mc.invariant.states")

// StateHolds evaluates a state formula at a system state.
func StateHolds(sys *ts.System, state int, f ltl.Formula) (bool, error) {
	if !ltl.IsStateFormula(f) {
		return false, fmt.Errorf("mc: %v is not a state formula", f)
	}
	holds, err := compileState(sys, f)
	if err != nil {
		return false, err
	}
	return holds(sys.Bits(state)), nil
}

// statePred is a state formula resolved against one system's
// propositions: it evaluates the formula on a state's bit row
// (ts.System.Bits).
type statePred func(row []uint64) bool

// compileState resolves the state formula f (propositional connectives
// over atomic propositions) against sys once, so that evaluating it at a
// state reads only that state's bit row.
func compileState(sys *ts.System, f ltl.Formula) (statePred, error) {
	switch t := f.(type) {
	case ltl.True:
		return func([]uint64) bool { return true }, nil
	case ltl.False:
		return func([]uint64) bool { return false }, nil
	case ltl.Prop:
		k := sys.PropIndex(t.Name)
		if k < 0 {
			return func([]uint64) bool { return false }, nil
		}
		w, bit := k>>6, uint64(1)<<(k&63)
		return func(row []uint64) bool { return row[w]&bit != 0 }, nil
	case ltl.Not:
		x, err := compileState(sys, t.F)
		if err != nil {
			return nil, err
		}
		return func(row []uint64) bool { return !x(row) }, nil
	case ltl.And:
		return compileBoth(sys, t.L, t.R, func(x, y bool) bool { return x && y })
	case ltl.Or:
		return compileBoth(sys, t.L, t.R, func(x, y bool) bool { return x || y })
	case ltl.Implies:
		return compileBoth(sys, t.L, t.R, func(x, y bool) bool { return !x || y })
	case ltl.Iff:
		return compileBoth(sys, t.L, t.R, func(x, y bool) bool { return x == y })
	}
	return nil, fmt.Errorf("mc: cannot evaluate %v at a state", f)
}

// compileBoth compiles l and r and combines their values with op.
func compileBoth(sys *ts.System, l, r ltl.Formula, op func(x, y bool) bool) (statePred, error) {
	x, err := compileState(sys, l)
	if err != nil {
		return nil, err
	}
	y, err := compileState(sys, r)
	if err != nil {
		return nil, err
	}
	return func(row []uint64) bool { return op(x(row), y(row)) }, nil
}

// satisfying returns, per state of sys, whether the state formula f holds
// there.
func satisfying(sys *ts.System, f ltl.Formula) ([]bool, error) {
	holds, err := compileState(sys, f)
	if err != nil {
		return nil, err
	}
	out := make([]bool, sys.NumStates())
	for s := range out {
		out[s] = holds(sys.Bits(s))
	}
	return out, nil
}

// Invariant checks □χ for a state formula χ by exploring the reachable
// states (fairness is irrelevant for safety). On failure it returns a
// finite path from an initial state to a violating state — the
// counterexample prefix that safety properties always have.
func Invariant(sys *ts.System, chi ltl.Formula) (bool, []int, error) {
	return InvariantCtx(context.Background(), sys, chi)
}

// InvariantCtx is Invariant with resource governance: each explored
// system state is charged against the context's budget and cancellation
// is polled, so the planner can run the invariant fast path under the
// same envelope as the general model checker. The exploration is
// reported as an mc.invariant span (states explored, verdict) and in the
// mc.invariant.states counter.
func InvariantCtx(ctx context.Context, sys *ts.System, chi ltl.Formula) (ok bool, path []int, err error) {
	if !ltl.IsStateFormula(chi) {
		return false, nil, fmt.Errorf("mc: invariant %v is not a state formula", chi)
	}
	holds, err := compileState(sys, chi)
	if err != nil {
		return false, nil, err
	}
	ctx, sp := obs.Start(ctx, "mc.invariant")
	sp.Int("sys_states", sys.NumStates())
	explored := 0
	defer func() {
		cntInvariantStates.Add(int64(explored))
		sp.Int("states", explored)
		if err == nil {
			sp.Bool("holds", ok)
		}
		sp.End()
	}()
	prev := make([]int, sys.NumStates()) // BFS parent; -1 for initial states
	seen := make([]bool, sys.NumStates())
	var queue []int
	for _, s := range sys.Init() {
		if !seen[s] {
			seen[s] = true
			prev[s] = -1
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		if err := budget.Poll(ctx, 0); err != nil {
			return false, nil, err
		}
		if err := budget.ChargeStates(ctx, 1); err != nil {
			return false, nil, err
		}
		explored++
		if !holds(sys.Bits(s)) {
			for cur := s; cur != -1; cur = prev[cur] {
				path = append(path, cur)
			}
			slices.Reverse(path)
			return false, path, nil
		}
		for _, next := range sys.AllSuccessors(s) {
			if !seen[next] {
				seen[next] = true
				prev[next] = s
				queue = append(queue, next)
			}
		}
	}
	return true, nil, nil
}

// InductiveResult reports how a candidate invariant fares under the
// paper's invariance proof rule: χ must hold initially and be preserved
// by every transition. A χ can be a true invariant yet not inductive;
// the rule is sound but requires strengthening in that case.
type InductiveResult struct {
	Inductive bool
	// FailsInitially lists initial states violating χ.
	FailsInitially []int
	// BrokenBy maps transition names to a (from, to) step where χ holds
	// at from but not at to.
	BrokenBy map[string][2]int
}

// CheckInductive applies the invariance rule to a candidate state
// invariant: initial validity plus preservation over every program step.
// The induction over computation positions is implicit — exactly the
// paper's point about safety proofs.
func CheckInductive(sys *ts.System, chi ltl.Formula) (InductiveResult, error) {
	if !ltl.IsStateFormula(chi) {
		return InductiveResult{}, fmt.Errorf("mc: candidate %v is not a state formula", chi)
	}
	holds, err := satisfying(sys, chi)
	if err != nil {
		return InductiveResult{}, err
	}
	res := InductiveResult{Inductive: true, BrokenBy: map[string][2]int{}}
	for _, s := range sys.Init() {
		if !holds[s] {
			res.Inductive = false
			res.FailsInitially = append(res.FailsInitially, s)
		}
	}
	for _, tr := range sys.Transitions() {
		for s := 0; s < sys.NumStates(); s++ {
			if !holds[s] {
				continue
			}
			for _, to := range tr.SuccessorsShared(s) {
				if !holds[to] {
					res.Inductive = false
					if _, dup := res.BrokenBy[tr.Name]; !dup {
						res.BrokenBy[tr.Name] = [2]int{s, to}
					}
				}
			}
		}
	}
	return res, nil
}

// Ranking is a well-founded ranking certificate for a response property
// □(trigger → ◇goal): Rank[s] is a natural number that strictly
// decreases along every step from a pending reachable state (trigger seen,
// goal not yet reached) — the explicit induction of liveness proofs.
// Valid only for properties that hold without needing fairness.
type Ranking struct {
	Rank []int // -1 for states where no rank is needed (non-pending)
}

// ExtractRanking attempts to build a ranking certificate for
// □(trigger → ◇goal) ignoring fairness: in the subgraph of non-goal
// states reachable from a trigger, every cycle would be a counterexample,
// so the subgraph must be a DAG and the longest-path length is a valid
// rank. Returns an error when the pending subgraph is cyclic (the
// property then needs a fairness argument; use Verify).
func ExtractRanking(sys *ts.System, trigger, goal ltl.Formula) (Ranking, error) {
	if !ltl.IsStateFormula(trigger) || !ltl.IsStateFormula(goal) {
		return Ranking{}, fmt.Errorf("mc: ranking needs state formulas")
	}
	n := sys.NumStates()
	isGoal, err := satisfying(sys, goal)
	if err != nil {
		return Ranking{}, err
	}
	isTrigger, err := satisfying(sys, trigger)
	if err != nil {
		return Ranking{}, err
	}
	// Pending states: non-goal states reachable (through non-goal states)
	// from a reachable trigger state.
	reach := map[int]bool{}
	for _, s := range sys.ReachableStates() {
		reach[s] = true
	}
	pending := make([]bool, n)
	var stack []int
	for s := 0; s < n; s++ {
		if reach[s] && isTrigger[s] && !isGoal[s] {
			pending[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range sys.AllSuccessors(s) {
			if !isGoal[next] && !pending[next] {
				pending[next] = true
				stack = append(stack, next)
			}
		}
	}
	// Longest path in the pending subgraph (must be a DAG).
	rank := make([]int, n)
	for i := range rank {
		rank[i] = -1
	}
	state := make([]int, n) // 0 unvisited, 1 in progress, 2 done
	var dfs func(s int) error
	dfs = func(s int) error {
		state[s] = 1
		best := 0
		for _, next := range sys.AllSuccessors(s) {
			if isGoal[next] || !pending[next] {
				continue
			}
			switch state[next] {
			case 1:
				return fmt.Errorf("mc: pending subgraph is cyclic at %q — the property needs a fairness argument", sys.StateName(next))
			case 0:
				if err := dfs(next); err != nil {
					return err
				}
			}
			if rank[next]+1 > best {
				best = rank[next] + 1
			}
		}
		rank[s] = best
		state[s] = 2
		return nil
	}
	for s := 0; s < n; s++ {
		if pending[s] && state[s] == 0 {
			if err := dfs(s); err != nil {
				return Ranking{}, err
			}
		}
	}
	return Ranking{Rank: rank}, nil
}

// Validate checks the ranking certificate: along every step between
// pending states the rank strictly decreases.
func (r Ranking) Validate(sys *ts.System) error {
	for s := 0; s < sys.NumStates(); s++ {
		if r.Rank[s] < 0 {
			continue
		}
		for _, next := range sys.AllSuccessors(s) {
			if r.Rank[next] >= 0 && r.Rank[next] >= r.Rank[s] {
				return fmt.Errorf("mc: rank does not decrease on %q → %q", sys.StateName(s), sys.StateName(next))
			}
		}
	}
	return nil
}
