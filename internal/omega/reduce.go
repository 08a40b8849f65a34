package omega

import (
	"context"

	"repro/internal/autkern"
	"repro/internal/obs"
)

// Reduce returns a language-equivalent automaton obtained by merging
// bisimilar states: states with the same acceptance "color" (their
// membership vector across all R/P sets) and the same successor classes
// on every symbol. For deterministic automata this is Moore-style
// partition refinement on colored states; runs map position-wise onto the
// quotient and a run's infinity set maps onto its class image, whose
// Streett verdict is identical because colors are class-invariant.
//
// Reduce never changes the number of pairs; combine with the canonical
// constructions (ToRecurrenceAutomaton etc.) for stronger normalization.
// Its "omega.reduce" span nests under the span ctx carries.
func (a *Automaton) Reduce(ctx context.Context) *Automaton {
	_, sp := obs.Start(ctx, "omega.reduce")
	sp.Int("in_states", a.NumStates())
	defer sp.End()
	t := a.Trim()
	n := t.NumStates()
	k := t.alpha.Size()

	// Initial partition by color.
	colorKey := func(q int, buf []byte) []byte {
		buf = buf[:0]
		for _, p := range t.pairs {
			b := byte(0)
			if p.R[q] {
				b |= 1
			}
			if p.P[q] {
				b |= 2
			}
			buf = append(buf, b)
		}
		return buf
	}
	class := make([]int, n)
	{
		colors := autkern.NewKeyInterner()
		var buf []byte
		for q := 0; q < n; q++ {
			buf = colorKey(q, buf)
			class[q], _ = colors.Intern(buf)
		}
	}

	// Refine until stable: split classes by successor-class signatures.
	sig := make([]byte, 0, 4*(k+1))
	for {
		sigs := autkern.NewKeyInterner()
		next := make([]int, n)
		for q := 0; q < n; q++ {
			sig = appendInt(sig[:0], class[q])
			for s := 0; s < k; s++ {
				sig = appendInt(sig, class[t.kern.Step(q, s)])
			}
			next[q], _ = sigs.Intern(sig)
		}
		same := true
		// Same partition iff the number of classes did not grow (refinement
		// only ever splits).
		oldCount := countClasses(class)
		if sigs.Len() != oldCount {
			same = false
		}
		class = next
		if same {
			break
		}
	}

	// Build the quotient with classes renumbered in BFS order from the
	// start class for a canonical presentation.
	m := countClasses(class)
	rep := make([]int, m)
	for i := range rep {
		rep[i] = -1
	}
	for q := 0; q < n; q++ {
		if rep[class[q]] < 0 {
			rep[class[q]] = q
		}
	}
	order := make([]int, 0, m)
	pos := make([]int, m)
	for i := range pos {
		pos[i] = -1
	}
	queue := []int{class[t.Start()]}
	pos[class[t.Start()]] = 0
	order = append(order, class[t.Start()])
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for s := 0; s < k; s++ {
			nc := class[t.kern.Step(rep[c], s)]
			if pos[nc] < 0 {
				pos[nc] = len(order)
				order = append(order, nc)
				queue = append(queue, nc)
			}
		}
	}
	trans := make([][]int, len(order))
	pairs := make([]Pair, len(t.pairs))
	for i := range pairs {
		pairs[i] = Pair{R: make([]bool, len(order)), P: make([]bool, len(order))}
	}
	for i, c := range order {
		q := rep[c]
		row := make([]int, k)
		for s := 0; s < k; s++ {
			row[s] = pos[class[t.kern.Step(q, s)]]
		}
		trans[i] = row
		for pi, p := range t.pairs {
			pairs[pi].R[i] = p.R[q]
			pairs[pi].P[i] = p.P[q]
		}
	}
	sp.Int("states", len(order)).Int("pairs", len(pairs))
	return MustNew(t.alpha, trans, 0, pairs)
}

func appendInt(buf []byte, v int) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func countClasses(class []int) int {
	seen := map[int]bool{}
	for _, c := range class {
		seen[c] = true
	}
	return len(seen)
}
