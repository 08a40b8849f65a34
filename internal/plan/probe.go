package plan

import (
	"context"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/omega"
)

// Probe is the planner's cheap, automaton-local evidence about one
// operand. Every field is a sufficient condition for some specialized
// procedure; all are computed from the operand alone (never from a
// product), so probes are memoizable under the automaton's structural
// key.
//
// Safety and Guarantee are the SEMANTIC §5.1 conditions, not the
// syntactic shapes: the multi-pair good-states shape does not imply the
// semantic class, and soundness of the fast paths needs the semantics.
// Weak, Buchi and CoBuchi are syntactic but sufficient as-is.
type Probe struct {
	// Safety: every run that stays in the live region forever is
	// accepted (no rejecting cycle within live∩reach). Equivalently the
	// language is closed: L = {σ : no bad prefix}.
	Safety bool
	// Guarantee: dually, no accepting cycle within co-live∩reach; the
	// language is open: accepted iff the run ever enters the co-dead
	// region.
	Guarantee bool
	// Weak: every reachable cyclic SCC is homogeneous w.r.t. every R_i
	// and P_i (Staiger–Wagner shape). Acceptance then depends only on
	// which SCC the run settles in, and products of weak automata are
	// weak.
	Weak bool
	// Buchi: all pairs have P = ∅ (pure Büchi conditions).
	Buchi bool
	// CoBuchi: all pairs have R = ∅ (co-Büchi conditions).
	CoBuchi bool
	// States and Pairs size the operand, for -explain output.
	States, Pairs int
}

// ProbeAutomaton computes the operand probe. The work is automaton-local
// — live/co-live regions and one pass over the SCC decomposition — and
// is charged to the context's budget like any other analysis.
func ProbeAutomaton(ctx context.Context, a *omega.Automaton) (Probe, error) {
	ctx, sp := obs.Start(ctx, "plan.probe")
	sp.Int("states", a.NumStates())
	defer sp.End()
	if err := budget.Poll(ctx, 1); err != nil {
		return Probe{}, err
	}
	an := core.Analyze(a)
	safety, err := an.Safety(ctx)
	if err != nil {
		return Probe{}, err
	}
	guarantee, err := an.Guarantee(ctx)
	if err != nil {
		return Probe{}, err
	}
	p := Probe{
		Safety:    safety,
		Guarantee: guarantee,
		Weak:      isWeak(a),
		Buchi:     a.IsRecurrenceAutomaton(),
		CoBuchi:   a.IsPersistenceAutomaton(),
		States:    a.NumStates(),
		Pairs:     a.NumPairs(),
	}
	sp.Bool("safety", p.Safety).Bool("guarantee", p.Guarantee).Bool("weak", p.Weak)
	return p, nil
}

// isWeak reports the Staiger–Wagner condition: each reachable cyclic SCC
// lies entirely inside or entirely outside every R_i and every P_i. Only
// reachable cyclic SCCs matter — an infinity set is always a strongly
// connected, cyclic, reachable set.
func isWeak(a *omega.Automaton) bool {
	reach := a.Reachable()
	for _, comp := range a.SCCs(nil) {
		if !reach[comp[0]] || !a.IsCyclic(comp) {
			continue
		}
		for i := 0; i < a.NumPairs(); i++ {
			r, p := a.PairVectors(i)
			if !homogeneous(comp, r) || !homogeneous(comp, p) {
				return false
			}
		}
	}
	return true
}

// homogeneous reports whether the set is entirely inside or entirely
// outside the membership vector.
func homogeneous(set []int, in []bool) bool {
	for _, q := range set[1:] {
		if in[q] != in[set[0]] {
			return false
		}
	}
	return true
}

// DecideContains picks the cheapest sound tier for L(a) ⊇ L(b) given
// the operand probes. Precedence is cheapest-first: safety needs only
// the container's class (the witness search is pure reachability);
// guarantee needs both operands open; the SCC tiers need both operands
// in shape so the product inherits it.
func DecideContains(pa, pb Probe) Decision {
	switch {
	case pa.Safety:
		return Decision{TierSafety, "container is a safety property: containment is bad-prefix reachability, no Streett analysis of the product"}
	case pa.Guarantee && pb.Guarantee:
		return Decision{TierGuarantee, "both operands are guarantee properties: containment reduces to reachability of the co-dead regions"}
	case pa.Weak && pb.Weak:
		return Decision{TierObligation, "both operands are weak (obligation shape): the product is weak, one SCC sweep decides"}
	case pa.Buchi && pb.Buchi:
		return Decision{TierRecurrence, "both operands are Büchi-shaped (all P=∅): per-pair restricted SCC passes, no refinement"}
	case pa.CoBuchi && pb.CoBuchi:
		return Decision{TierPersistence, "both operands are co-Büchi-shaped (all R=∅): a single restricted SCC pass decides"}
	default:
		return Decision{TierStreett, "no class evidence on the operands: general lazy Streett product"}
	}
}

// DecideEmptiness picks the tier for a single-operand emptiness query.
func DecideEmptiness(p Probe) Decision {
	switch {
	case p.Safety:
		return Decision{TierSafety, "safety property: nonempty iff the start state is live, witness from any live cycle"}
	case p.Guarantee:
		return Decision{TierGuarantee, "guarantee property: nonempty iff the co-dead region is reachable"}
	case p.Weak:
		return Decision{TierObligation, "weak automaton: one SCC sweep with per-SCC boolean acceptance"}
	case p.Buchi:
		return Decision{TierRecurrence, "Büchi shape: an SCC meeting every R_i decides"}
	case p.CoBuchi:
		return Decision{TierPersistence, "co-Büchi shape: a cycle within ⋂P_i decides"}
	default:
		return Decision{TierStreett, "no class evidence: general Streett emptiness with refinement"}
	}
}

// DecideOperand reports the tier queries over this single operand land
// in — the per-requirement answer behind speccheck -explain. Precedence
// matches DecideContains: the cheapest procedure the operand's class
// evidence supports.
func DecideOperand(p Probe) Decision {
	switch {
	case p.Safety:
		return Decision{TierSafety, "semantically safety (closed): bad-prefix reachability suffices, no Streett pairs"}
	case p.Guarantee:
		return Decision{TierGuarantee, "semantically guarantee (open): reachability of the co-dead region suffices"}
	case p.Weak:
		return Decision{TierObligation, "weak (obligation shape): acceptance settles per SCC, one sweep decides"}
	case p.Buchi:
		return Decision{TierRecurrence, "Büchi shape (all P=∅): SCC passes without refinement"}
	case p.CoBuchi:
		return Decision{TierPersistence, "co-Büchi shape (all R=∅): single restricted SCC pass"}
	default:
		return Decision{TierStreett, "no class evidence: general Streett machinery"}
	}
}

// DecideClass maps a syntactic formula class to the tier its compiled
// automaton is guaranteed to land in — the formula-side hint for
// speccheck -explain. The mapping follows Figure 1: a syntactically
// safe formula compiles to a semantically safe automaton, and so on.
func DecideClass(c core.Class) Decision {
	switch c {
	case core.Safety:
		return Decision{TierSafety, "syntactic safety formula"}
	case core.Guarantee:
		return Decision{TierGuarantee, "syntactic guarantee formula"}
	case core.Obligation:
		return Decision{TierObligation, "syntactic obligation formula"}
	case core.Recurrence:
		return Decision{TierRecurrence, "syntactic recurrence formula"}
	case core.Persistence:
		return Decision{TierPersistence, "syntactic persistence formula"}
	default:
		return Decision{TierStreett, "syntactic reactivity formula: general Streett"}
	}
}
