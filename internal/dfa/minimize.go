package dfa

import (
	"context"

	"repro/internal/budget"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Minimize returns the canonical minimal DFA for L(d) (restricted to
// reachable states), using Hopcroft's partition-refinement algorithm.
// The result is complete and deterministic like its input; states are
// numbered in BFS order from the start state so that equal languages yield
// structurally identical automata. Minimize runs untraced: it opens no
// span, since it has no request context to nest one under.
func (d *DFA) Minimize() *DFA {
	m, err := d.minimize(context.Background())
	if err != nil {
		// Only reachable under a context budget or test-only fault
		// injection; the background context carries neither.
		panic(err)
	}
	return m
}

// MinimizeCtx is Minimize with resource governance: each splitter pass of
// the refinement is charged as one step against the context's budget, so
// minimizing a huge automaton under a step cap aborts with
// budget.ErrBudgetExceeded.
func (d *DFA) MinimizeCtx(ctx context.Context) (*DFA, error) {
	ctx, sp := obs.Start(ctx, "dfa.minimize")
	sp.Int("in_states", d.NumStates())
	defer sp.End()
	m, err := d.minimize(ctx)
	if err == nil {
		sp.Int("states", m.NumStates())
	}
	return m, err
}

func (d *DFA) minimize(ctx context.Context) (*DFA, error) {
	t := d.Trim()
	n := t.NumStates()
	k := t.alpha.Size()

	// Reverse transition lists: rev[s][q] = predecessors of q on symbol s.
	rev := make([][][]int, k)
	for s := 0; s < k; s++ {
		rev[s] = make([][]int, n)
	}
	for q := 0; q < n; q++ {
		for s := 0; s < k; s++ {
			next := t.kern.Step(q, s)
			rev[s][next] = append(rev[s][next], q)
		}
	}

	// Partition as array of block ids.
	block := make([]int, n)
	var accepting, rejecting []int
	for q := 0; q < n; q++ {
		if t.accept[q] {
			accepting = append(accepting, q)
		} else {
			rejecting = append(rejecting, q)
		}
	}
	blocks := [][]int{}
	addBlock := func(members []int) int {
		id := len(blocks)
		blocks = append(blocks, members)
		for _, q := range members {
			block[q] = id
		}
		return id
	}
	if len(accepting) > 0 {
		addBlock(accepting)
	}
	if len(rejecting) > 0 {
		addBlock(rejecting)
	}

	// Worklist of (block id, symbol) splitters.
	type splitter struct{ b, s int }
	var work []splitter
	inWork := map[splitter]bool{}
	push := func(sp splitter) {
		if !inWork[sp] {
			inWork[sp] = true
			work = append(work, sp)
		}
	}
	for b := range blocks {
		for s := 0; s < k; s++ {
			push(splitter{b, s})
		}
	}

	for len(work) > 0 {
		if err := fault.Hit(fault.SiteDFAMinimize); err != nil {
			return nil, err
		}
		if err := budget.Poll(ctx, 1); err != nil {
			return nil, err
		}
		sp := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[sp] = false

		// X = states with a transition on symbol sp.s into block sp.b.
		inX := map[int]bool{}
		for _, q := range blocks[sp.b] {
			for _, p := range rev[sp.s][q] {
				inX[p] = true
			}
		}
		if len(inX) == 0 {
			continue
		}
		// Split every block by membership in X.
		touched := map[int]bool{}
		for p := range inX {
			touched[block[p]] = true
		}
		for b := range touched {
			var in, out []int
			for _, q := range blocks[b] {
				if inX[q] {
					in = append(in, q)
				} else {
					out = append(out, q)
				}
			}
			if len(in) == 0 || len(out) == 0 {
				continue
			}
			// Replace block b with `in`, create a new block for `out`.
			blocks[b] = in
			newID := addBlock(out)
			smaller := newID
			if len(in) < len(out) {
				// Keep the convention: push the smaller side for all
				// symbols; for the larger side, push only if its splitter
				// is already queued (Hopcroft's optimization).
				smaller = b
			}
			for s := 0; s < k; s++ {
				if inWork[splitter{b, s}] {
					push(splitter{newID, s})
				} else {
					push(splitter{smaller, s})
				}
			}
		}
	}

	// Rebuild on block ids, then renumber in BFS order from the start block
	// for a canonical presentation.
	m := len(blocks)
	rawTrans := make([][]int, m)
	rawAccept := make([]bool, m)
	for b, members := range blocks {
		q := members[0]
		row := make([]int, k)
		for s := 0; s < k; s++ {
			row[s] = block[t.kern.Step(q, s)]
		}
		rawTrans[b] = row
		rawAccept[b] = t.accept[q]
	}
	startBlock := block[t.kern.Start()]

	order := make([]int, 0, m)
	pos := make([]int, m)
	for i := range pos {
		pos[i] = -1
	}
	queue := []int{startBlock}
	pos[startBlock] = 0
	order = append(order, startBlock)
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		for s := 0; s < k; s++ {
			next := rawTrans[b][s]
			if pos[next] < 0 {
				pos[next] = len(order)
				order = append(order, next)
				queue = append(queue, next)
			}
		}
	}
	trans := make([][]int, len(order))
	accept := make([]bool, len(order))
	for i, b := range order {
		row := make([]int, k)
		for s := 0; s < k; s++ {
			row[s] = pos[rawTrans[b][s]]
		}
		trans[i] = row
		accept[i] = rawAccept[b]
	}
	return New(t.alpha, trans, 0, accept)
}
