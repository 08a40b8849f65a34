package mc

import (
	"fmt"

	"repro/internal/ltl"
	"repro/internal/ts"
)

// This file implements the Manna–Pnueli chain rule for response
// properties under justice (weak fairness) — the "explicit induction"
// proof principle the paper attaches to the recurrence class, as a
// synthesizable and independently checkable certificate.
//
// A certificate for p ⇒ ◇q assigns every pending state (reachable,
// ¬goal, reachable from a trigger through non-goal states) a rank and a
// helpful weakly-fair transition such that:
//
//  1. the helpful transition is enabled at the state;
//  2. every step of the helpful transition reaches the goal or a state of
//     strictly smaller rank;
//  3. every step of any transition reaches the goal, a smaller rank, or a
//     state of the same rank with the same helpful transition.
//
// Justice then forces progress: along a computation stuck at one rank the
// helpful transition stays fixed and (by 1 + 3) continuously enabled, so
// it eventually fires and (by 2) decreases the rank — a well-founded
// descent into the goal.

// ResponseCertificate is a machine-checkable proof of □(trigger → ◇goal)
// under justice.
type ResponseCertificate struct {
	// Rank per system state (-1 for non-pending states).
	Rank []int
	// Helpful per system state: the index (into sys.Transitions()) of the
	// pending state's helpful just transition; -1 for non-pending states.
	Helpful []int
}

// ErrNeedsCompassion is returned when the justice chain rule cannot prove
// the property (it may still hold under strong fairness, or be false).
var ErrNeedsCompassion = fmt.Errorf("mc: justice chain rule fails — the property needs compassion or does not hold")

// SynthesizeResponse builds a chain-rule certificate for
// □(trigger → ◇goal), or fails with ErrNeedsCompassion.
func SynthesizeResponse(sys *ts.System, trigger, goal ltl.Formula) (ResponseCertificate, error) {
	n := sys.NumStates()
	isGoal, pending, err := pendingRegion(sys, trigger, goal)
	if err != nil {
		return ResponseCertificate{}, err
	}

	cert := ResponseCertificate{Rank: make([]int, n), Helpful: make([]int, n)}
	for i := range cert.Rank {
		cert.Rank[i] = -1
		cert.Helpful[i] = -1
	}

	good := make([]bool, n) // goal or already ranked
	for s := 0; s < n; s++ {
		good[s] = isGoal[s]
	}
	remaining := 0
	for s := 0; s < n; s++ {
		if pending[s] && !good[s] {
			remaining++
		}
	}

	trans := sys.Transitions()
	layer := 0
	for remaining > 0 {
		progressed := false
		for ti, tr := range trans {
			// Only fair transitions can be helpful. A strongly fair
			// transition satisfies justice too, so it is usable — but
			// condition 3 still demands continuous enabledness, which is
			// what makes this the *justice* rule.
			if tr.Fair != ts.Weak && tr.Fair != ts.Strong {
				continue
			}
			// Candidate set for this helpful transition: enabled, all its
			// steps strictly good.
			inX := make([]bool, n)
			var members []int
			for s := 0; s < n; s++ {
				if !pending[s] || good[s] || !tr.Enabled(s) {
					continue
				}
				ok := true
				for _, to := range tr.Successors(s) {
					if !good[to] {
						ok = false
						break
					}
				}
				if ok {
					inX[s] = true
					members = append(members, s)
				}
			}
			// Shrink: every other step must stay in good ∪ X (condition 3).
			for changed := true; changed; {
				changed = false
				var kept []int
				for _, s := range members {
					if !inX[s] {
						continue
					}
					ok := true
					for _, other := range trans {
						for _, to := range other.Successors(s) {
							if !good[to] && !inX[to] {
								ok = false
								break
							}
						}
						if !ok {
							break
						}
					}
					if ok {
						kept = append(kept, s)
					} else {
						inX[s] = false
						changed = true
					}
				}
				members = kept
			}
			for _, s := range members {
				cert.Rank[s] = layer
				cert.Helpful[s] = ti
				progressed = true
			}
			if len(members) > 0 {
				for _, s := range members {
					good[s] = true
					remaining--
				}
				layer++
			}
		}
		if !progressed {
			return ResponseCertificate{}, ErrNeedsCompassion
		}
	}
	return cert, nil
}

// pendingRegion computes the goal predicate and the pending region:
// non-goal states reachable from a reachable trigger state via non-goal
// states.
func pendingRegion(sys *ts.System, trigger, goal ltl.Formula) (isGoal, pending []bool, err error) {
	n := sys.NumStates()
	if isGoal, err = satisfying(sys, goal); err != nil {
		return nil, nil, err
	}
	isTrigger, err := satisfying(sys, trigger)
	if err != nil {
		return nil, nil, err
	}
	reach := map[int]bool{}
	for _, s := range sys.ReachableStates() {
		reach[s] = true
	}
	pending = make([]bool, n)
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
	return isGoal, pending, nil
}

// Validate checks the certificate against the proof rule's side
// conditions, independently of how it was produced.
func (c ResponseCertificate) Validate(sys *ts.System, trigger, goal ltl.Formula) error {
	n := sys.NumStates()
	if len(c.Rank) != n || len(c.Helpful) != n {
		return fmt.Errorf("mc: certificate size mismatch")
	}
	isGoal, pending, err := pendingRegion(sys, trigger, goal)
	if err != nil {
		return err
	}
	trans := sys.Transitions()
	for s := 0; s < n; s++ {
		if !pending[s] {
			continue
		}
		if c.Rank[s] < 0 || c.Helpful[s] < 0 || c.Helpful[s] >= len(trans) {
			return fmt.Errorf("mc: pending state %q lacks rank/helpful", sys.StateName(s))
		}
		h := trans[c.Helpful[s]]
		if h.Fair == ts.Unfair {
			return fmt.Errorf("mc: helpful transition %q of %q is unfair", h.Name, sys.StateName(s))
		}
		if !h.Enabled(s) {
			return fmt.Errorf("mc: helpful transition %q disabled at %q", h.Name, sys.StateName(s))
		}
		for _, to := range h.Successors(s) {
			if !isGoal[to] && c.Rank[to] >= c.Rank[s] {
				return fmt.Errorf("mc: helpful step %q → %q does not decrease rank", sys.StateName(s), sys.StateName(to))
			}
		}
		for ti, tr := range trans {
			for _, to := range tr.Successors(s) {
				if isGoal[to] {
					continue
				}
				if c.Rank[to] < c.Rank[s] {
					continue
				}
				if c.Rank[to] == c.Rank[s] && c.Helpful[to] == c.Helpful[s] {
					continue
				}
				return fmt.Errorf("mc: step %q (%s) → %q escapes the chain (rank %d→%d)",
					sys.StateName(s), trans[ti].Name, sys.StateName(to), c.Rank[s], c.Rank[to])
			}
		}
	}
	return nil
}
