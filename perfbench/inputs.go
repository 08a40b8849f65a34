package main

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ltl"
	"repro/internal/patterns"
)

// Inputs are generated from the seed alone: the same seed gives the same
// formula text, byte for byte, and the program under test only ever sees
// the generated strings.

// props are the four propositions every generated formula draws from;
// they are the catalog's own generic names.
var props = []string{"p", "q", "r", "s"}

// classifyQuery is one spec-classify input: formula text plus the
// catalog class its classification must contain.
type classifyQuery struct {
	Text  string
	Bound core.Class // join of the conjuncts' catalog classes
	Name  string     // catalog entries the formula was built from
}

// pastOperand draws one seeded past formula (depth ≤ 2, four props).
func pastOperand(rng *rand.Rand) ltl.Formula {
	return gen.RandomFormula(rng, gen.FormulaOpts{Props: props, MaxDepth: 2, AllowPast: true})
}

// catalogInstance builds catalog entry e with its operands replaced by
// seeded past formulas. Substituting past formulas for the generic
// propositions keeps the property inside the entry's class.
func catalogInstance(rng *rand.Rand, e patterns.Entry) classifyQuery {
	spec := e.Spec
	sub := func(f ltl.Formula) ltl.Formula {
		if f == nil {
			return nil
		}
		return pastOperand(rng)
	}
	spec.P, spec.Q, spec.R, spec.S = sub(spec.P), sub(spec.Q), sub(spec.R), sub(spec.S)
	f, err := patterns.Build(spec)
	if err != nil {
		// Build rejects only non-past operands, and every operand is past.
		panic(err)
	}
	return classifyQuery{Text: f.String(), Bound: e.Class, Name: e.Name}
}

// classifyQueries returns the n seeded queries of one pass (a seed gives
// a stream of passes, each with its own formulas), in seeded order. Two
// in three are catalog instances, cycling through the entries; one in
// three is the conjunction of two instances, cycling through all ordered
// entry pairs. The mix is the same for every seed, so seeds differ only
// in operands and order.
func classifyQueries(seed int64, pass, n int) []classifyQuery {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	cat := patterns.Catalog()
	out := make([]classifyQuery, n)
	for i := range out {
		g := pass*n + i // position in the seed's stream
		if g%3 != 2 {
			out[i] = catalogInstance(rng, cat[g%len(cat)])
			continue
		}
		m := g / 3
		a := catalogInstance(rng, cat[m/len(cat)%len(cat)])
		b := catalogInstance(rng, cat[m%len(cat)])
		f := ltl.And{L: ltl.MustParse(a.Text), R: ltl.MustParse(b.Text)}
		out[i] = classifyQuery{Text: f.String(), Bound: join(a.Bound, b.Bound), Name: a.Name + " & " + b.Name}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// join is the least class of the hierarchy containing both classes
// (Figure 1: safety and guarantee meet in obligation, recurrence and
// persistence in reactivity, and every class sits below reactivity).
func join(a, b core.Class) core.Class {
	if a == b {
		return a
	}
	if a > b {
		a, b = b, a
	}
	switch {
	case b == core.Reactivity:
		return core.Reactivity
	case a == core.Recurrence && b == core.Persistence:
		return core.Reactivity
	case b >= core.Obligation:
		// a is below b unless a is itself one of recurrence/persistence,
		// handled above.
		return b
	default:
		// a, b are safety and guarantee.
		return core.Obligation
	}
}
