package regex

import (
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/autkern"
	"repro/internal/dfa"
	"repro/internal/word"
)

// prodEdge is an edge of the lasso-product graph; consuming edges read a
// symbol of the input word.
type prodEdge struct {
	to        int
	consuming bool
}

// Buchi is a nondeterministic Büchi automaton compiled from an ω-regular
// expression. Accepting runs must visit an accepting state infinitely
// often. It supports exact membership tests for lasso words and witness
// extraction, which is all the repository needs from ω-regexes.
type Buchi struct {
	nfa *dfa.NFA
}

// Alphabet returns the automaton's alphabet.
func (b *Buchi) Alphabet() *alphabet.Alphabet { return b.nfa.Alpha }

// NumStates returns the number of states.
func (b *Buchi) NumStates() int { return len(b.nfa.Trans) }

// CompileOmega compiles an ω-regular expression (every word it denotes is
// infinite) into a Büchi automaton.
func CompileOmega(n Node, alpha *alphabet.Alphabet) (*Buchi, error) {
	if !ContainsOmega(n) {
		return nil, fmt.Errorf("regex: %v is finitary; use Compile", n)
	}
	if err := validateOmegaPositions(n, true); err != nil {
		return nil, err
	}
	b := &builder{nfa: dfa.NewNFA(alpha, 0)}
	starts, err := buildOmega(b, n)
	if err != nil {
		return nil, err
	}
	b.nfa.Start = starts
	return &Buchi{nfa: b.nfa}, nil
}

// CompileOmegaString parses and compiles an ω-regular expression.
func CompileOmegaString(expr string, alpha *alphabet.Alphabet) (*Buchi, error) {
	n, err := Parse(expr)
	if err != nil {
		return nil, err
	}
	return CompileOmega(n, alpha)
}

// MustCompileOmegaString is CompileOmegaString but panics on error.
func MustCompileOmegaString(expr string, alpha *alphabet.Alphabet) *Buchi {
	b, err := CompileOmegaString(expr, alpha)
	if err != nil {
		panic(err)
	}
	return b
}

// buildOmega builds the Büchi fragment for an ω-expression and returns its
// start states. Accepting states are marked directly in b.nfa.
func buildOmega(b *builder, n Node) ([]int, error) {
	switch t := n.(type) {
	case Union:
		s1, err := buildOmega(b, t.A)
		if err != nil {
			return nil, err
		}
		s2, err := buildOmega(b, t.B)
		if err != nil {
			return nil, err
		}
		return append(s1, s2...), nil
	case Concat:
		// t.A is finitary (validated), t.B carries the ω-tail.
		f, err := b.build(t.A)
		if err != nil {
			return nil, err
		}
		tails, err := buildOmega(b, t.B)
		if err != nil {
			return nil, err
		}
		for _, s := range tails {
			b.nfa.AddEps(f.accept, s)
		}
		return []int{f.start}, nil
	case Omega:
		f, err := b.build(t.A)
		if err != nil {
			return nil, err
		}
		anchor := b.fresh()
		b.nfa.AddEps(anchor, f.start)
		b.nfa.AddEps(f.accept, anchor)
		b.nfa.Accept[anchor] = true
		return []int{anchor}, nil
	default:
		if !ContainsOmega(n) {
			// A finitary branch in ω-position (e.g. the ∅ in "a^w+∅", or
			// the b in "a^w+b") denotes only finite words, so it
			// contributes no infinite words: no start states.
			return nil, nil
		}
		// After validateOmegaPositions, a node containing ω in tail
		// position is Union, Concat or Omega — anything else is a bug.
		return nil, fmt.Errorf("regex: %v cannot head an ω-expression", n)
	}
}

// AcceptsLasso reports whether the automaton accepts the infinite word.
// Exact: it searches the product of the automaton with the lasso structure
// for a reachable strongly connected component that contains an accepting
// state and consumes at least one symbol.
func (b *Buchi) AcceptsLasso(w word.Lasso) bool {
	u, v := w.PrefixPart(), w.LoopPart()
	nPos := len(u) + len(v)
	symbolAt := func(i int) alphabet.Symbol {
		if i < len(u) {
			return u[i]
		}
		return v[i-len(u)]
	}
	nextPos := func(i int) int {
		if i+1 < nPos {
			return i + 1
		}
		return len(u)
	}
	id := func(q, i int) int { return q*nPos + i }
	nNodes := b.NumStates() * nPos

	// Build reachable product graph over the dense (state, position) node
	// space. Edges carry a consuming flag.
	adj := make([][]prodEdge, nNodes)
	seen := make([]bool, nNodes)
	var stack []int
	for _, q := range b.nfa.EpsClosure(b.nfa.Start) {
		n := id(q, 0)
		if !seen[n] {
			seen[n] = true
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		q, i := n/nPos, n%nPos
		push := func(to int, consuming bool) {
			adj[n] = append(adj[n], prodEdge{to: to, consuming: consuming})
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
		for _, q2 := range b.nfa.Eps[q] {
			push(id(q2, i), false)
		}
		si := b.nfa.Alpha.Index(symbolAt(i))
		if si < 0 {
			return false
		}
		for _, q2 := range b.nfa.Trans[q][si] {
			push(id(q2, nextPos(i)), true)
		}
	}

	// SCC decomposition over the product graph via the shared kernel.
	comps := autkern.SCCsFunc(nNodes,
		func(n int) int { return len(adj[n]) },
		func(n, i int) int { return adj[n][i].to },
		seen, nil)
	sccOf := make([]int, nNodes)
	for c, comp := range comps {
		for _, n := range comp {
			sccOf[n] = c
		}
	}
	for c, comp := range comps {
		hasAccept, hasConsume := false, false
		for _, n := range comp {
			if b.nfa.Accept[n/nPos] {
				hasAccept = true
			}
			for _, e := range adj[n] {
				if e.consuming && sccOf[e.to] == c {
					hasConsume = true
				}
			}
		}
		if hasAccept && hasConsume {
			return true
		}
	}
	return false
}

// Witness returns a lasso word accepted by the automaton, or ok=false if
// the language is empty.
func (b *Buchi) Witness() (word.Lasso, bool) {
	// For each accepting state reachable from a start state, search a
	// closed path back to it that consumes at least one symbol.
	prefixes := b.shortestPathsFromStarts()
	for q, pre := range prefixes {
		if !b.nfa.Accept[q] {
			continue
		}
		if loop, ok := b.shortestConsumingLoop(q); ok {
			return word.MustLasso(pre, loop), true
		}
	}
	return word.Lasso{}, false
}

// shortestPathsFromStarts BFSes from the start set, recording the symbol
// labels along a shortest (in edges) path to each reachable state.
func (b *Buchi) shortestPathsFromStarts() map[int]word.Finite {
	type node struct {
		q int
		w word.Finite
	}
	out := map[int]word.Finite{}
	var queue []node
	for _, q := range b.nfa.Start {
		if _, ok := out[q]; !ok {
			out[q] = word.Finite{}
			queue = append(queue, node{q: q, w: word.Finite{}})
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, q2 := range b.nfa.Eps[cur.q] {
			if _, ok := out[q2]; !ok {
				out[q2] = cur.w
				queue = append(queue, node{q: q2, w: cur.w})
			}
		}
		for si, tos := range b.nfa.Trans[cur.q] {
			sym := b.nfa.Alpha.Symbol(si)
			for _, q2 := range tos {
				if _, ok := out[q2]; !ok {
					w2 := append(append(word.Finite{}, cur.w...), sym)
					out[q2] = w2
					queue = append(queue, node{q: q2, w: w2})
				}
			}
		}
	}
	return out
}

// shortestConsumingLoop finds a closed path q → q with at least one
// symbol-consuming edge, returning its label word.
func (b *Buchi) shortestConsumingLoop(q int) (word.Finite, bool) {
	// BFS over (state, consumed-bit), interned through the shared kernel's
	// pair interner: a pair is unseen iff interning it grows the table.
	type node struct {
		q        int
		consumed int // 0 or 1
		w        word.Finite
	}
	in := autkern.NewPairInterner()
	in.Intern(q, 0)
	queue := []node{{q: q, w: word.Finite{}}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.q == q && cur.consumed == 1 {
			return cur.w, true
		}
		for _, q2 := range b.nfa.Eps[cur.q] {
			if q2 == q && cur.consumed == 1 {
				return cur.w, true
			}
			if before := in.Len(); in.Intern(q2, cur.consumed) == before {
				queue = append(queue, node{q: q2, consumed: cur.consumed, w: cur.w})
			}
		}
		for si, tos := range b.nfa.Trans[cur.q] {
			sym := b.nfa.Alpha.Symbol(si)
			for _, q2 := range tos {
				w2 := append(append(word.Finite{}, cur.w...), sym)
				if q2 == q {
					return w2, true
				}
				if before := in.Len(); in.Intern(q2, 1) == before {
					queue = append(queue, node{q: q2, consumed: 1, w: w2})
				}
			}
		}
	}
	return nil, false
}
