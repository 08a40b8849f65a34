package ts

import "strconv"

// This file is the scaffolding for the parameterized protocol families
// (ring mutex, leader election, cache coherence) that give the
// state-space search realistic many-state workloads. Each family builds
// its System by breadth-first search from the initial configurations, so
// only reachable configurations become states — the full cross product of
// a protocol's per-node variables is mostly unreachable and would drown
// the builder at interesting sizes.

// maxScenarioN caps the per-family parameter: configurations are encoded
// in fixed-size arrays (comparable, map-key friendly), and the state
// spaces past this size outgrow what the benchmarks need anyway.
const maxScenarioN = 12

// ScenarioSpec pairs an LTL formula (source text over the family's
// propositions) with its known verdict over the family's fair
// computations. The formula stays a string because ts sits below the
// ltl/mc layers; the mc scenario suite parses and checks each one.
type ScenarioSpec struct {
	Formula string
	Holds   bool
}

// indexed returns the proposition names prefix0 … prefix<n-1>. A family
// concatenates such lists into its fixed proposition list, so that
// prefix<i> of the k-th list is bit k·n+i of its state labels.
func indexed(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}

// protoTransition describes one named transition of a protocol family as
// a successor function over configurations: step returns the successor
// and true when the transition is enabled (every family's transitions are
// deterministic).
type protoTransition[C comparable] struct {
	name string
	fair Fairness
	step func(C) (C, bool)
}

// buildReachable grows a System breadth-first from the initial
// configurations, declaring states and transition steps as they are
// discovered. Configurations are interned by value; a state's
// propositions are computed once, when it is first seen, as label's bit
// mask over props (at most 64 of them), and its name is never stored:
// StateName formats the interned configuration with name on demand.
func buildReachable[C comparable](inits []C, props []string, label func(C) uint64, name func(C) string, trans []protoTransition[C]) (*System, error) {
	b := NewBuilder()
	built := make([]*Transition, len(trans))
	for i, tr := range trans {
		built[i] = b.Transition(tr.name, tr.fair)
	}
	state := map[C]int{}
	var confs []C // by state index; confs[head:] is the BFS queue
	b.famProps = props
	b.nameOf = func(i int) string { return name(confs[i]) }
	intern := func(c C) int {
		if i, ok := state[c]; ok {
			return i
		}
		i := len(confs)
		state[c] = i
		confs = append(confs, c)
		b.masks = append(b.masks, label(c))
		return i
	}
	for _, c := range inits {
		b.SetInit(intern(c))
	}
	for head := 0; head < len(confs); head++ {
		c := confs[head]
		for i, tr := range trans {
			if d, ok := tr.step(c); ok {
				built[i].Step(head, intern(d))
			}
		}
	}
	b.AddIdle()
	return b.Build()
}
