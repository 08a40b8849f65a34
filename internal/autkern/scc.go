package autkern

import (
	"context"
	"slices"

	"repro/internal/budget"
	"repro/internal/obs"
)

var (
	cntSCCRuns  = obs.NewCounter("autkern.scc.runs")
	cntSCCNodes = obs.NewCounter("autkern.scc.nodes")
)

// sccPollEvery is how many node visits a budget-governed SCC pass
// (SCCsFuncCtx) lets pass between context/budget polls.
const sccPollEvery = 256

// SCCsFunc computes the strongly connected components of a graph given
// by indexed edge access: node q has deg(q) outgoing edges, the i-th
// targeting edge(q, i). Only nodes with allowed[q] (nil means all)
// participate; every allowed node lands in exactly one component.
// Components are sorted internally and emitted in Tarjan completion
// order (reverse topological order of the condensation).
//
// With a non-nil sc the pass works in the caller's scratch and its
// components alias it (see SCCScratch); with nil it allocates its own.
//
// This is the repository's single Tarjan implementation (iterative,
// explicit frame stack — no recursion depth limit); dfa, omega, mc and
// regex all route through it, directly or via Kernel.SCCs.
func SCCsFunc(n int, deg func(int) int, edge func(int, int) int, allowed []bool, sc *SCCScratch) [][]int {
	comps, _ := sccs(nil, n, deg, edge, allowed, sc)
	return comps
}

// SCCScratch is caller-owned working memory for SCC passes: Tarjan's
// index, low and stack arrays, and one buffer the components of a pass
// share. Once it has grown to a graph's size, a pass over it allocates
// nothing. The components a pass returns live in the scratch and stay
// valid only until the next pass over the same scratch; a caller that
// nests passes (one per component of an outer pass) keeps one scratch per
// nesting depth. The zero value is ready to use.
type SCCScratch struct {
	index   []int32 // visit number, 1-based; 0 = unvisited
	low     []int32
	onStack []bool
	stack   []int32
	call    []sccFrame
	buf     []int   // the components' nodes, back to back
	comps   [][]int // subslices of buf
}

// sccFrame is one frame of Tarjan's explicit call stack: a node and the
// position of the next edge to follow.
type sccFrame struct {
	node, edge int
}

// reset readies the scratch for a pass over n nodes.
func (sc *SCCScratch) reset(n int) {
	if cap(sc.index) < n {
		sc.index = make([]int32, n)
		sc.low = make([]int32, n)
		sc.onStack = make([]bool, n)
		sc.buf = make([]int, 0, n)
	} else {
		sc.index = sc.index[:n]
		sc.low = sc.low[:n]
		sc.onStack = sc.onStack[:n]
		clear(sc.index)
	}
}

// SCCsFuncCtx is SCCsFunc under resource governance: one budget step is
// charged for the pass and the context is polled periodically while
// visiting nodes, so an SCC pass over a huge product aborts promptly
// with ctx.Err() or budget.ErrBudgetExceeded.
func SCCsFuncCtx(ctx context.Context, n int, deg func(int) int, edge func(int, int) int, allowed []bool) ([][]int, error) {
	if err := budget.Poll(ctx, 1); err != nil {
		return nil, err
	}
	return sccs(ctx, n, deg, edge, allowed, nil)
}

// SCCsCtx is Kernel.SCCs under resource governance (see SCCsFuncCtx).
// The allowed == nil decomposition is served from (and fills) the
// kernel's cache.
func (kn *Kernel) SCCsCtx(ctx context.Context, allowed []bool) ([][]int, error) {
	if err := budget.Poll(ctx, 1); err != nil {
		return nil, err
	}
	if allowed == nil {
		if c := kn.sccsAll.Load(); c != nil {
			return *c, nil
		}
	}
	rows := kn.rows
	comps, err := sccs(ctx, len(rows),
		func(q int) int { return len(rows[q]) },
		func(q, i int) int { return rows[q][i] },
		allowed, nil)
	if err != nil {
		return nil, err
	}
	if allowed == nil {
		kn.sccsAll.CompareAndSwap(nil, &comps)
		return *kn.sccsAll.Load(), nil
	}
	return comps, nil
}

// sccs is the iterative Tarjan core. A non-nil ctx enables periodic
// polling; with a nil ctx the error result is always nil. A nil sc gets a
// scratch of its own.
func sccs(ctx context.Context, n int, deg func(int) int, edge func(int, int) int, allowed []bool, sc *SCCScratch) ([][]int, error) {
	cntSCCRuns.Inc()
	if sc == nil {
		sc = new(SCCScratch)
	}
	sc.reset(n)
	index, low, onStack := sc.index, sc.low, sc.onStack
	stack, call, buf, comps := sc.stack[:0], sc.call[:0], sc.buf[:0], sc.comps[:0]
	defer func() { sc.stack, sc.call, sc.buf, sc.comps = stack, call, buf, comps }()
	var counter int32
	for root := 0; root < n; root++ {
		if (allowed != nil && !allowed[root]) || index[root] != 0 {
			continue
		}
		counter++
		index[root], low[root] = counter, counter
		stack = append(stack, int32(root))
		onStack[root] = true
		call = append(call, sccFrame{node: root})
		for len(call) > 0 {
			f := &call[len(call)-1]
			q := f.node
			if f.edge < deg(q) {
				to := edge(q, f.edge)
				f.edge++
				if allowed != nil && !allowed[to] {
					continue
				}
				if index[to] == 0 {
					counter++
					index[to], low[to] = counter, counter
					if ctx != nil && counter%sccPollEvery == 0 {
						if err := budget.Poll(ctx, 0); err != nil {
							cntSCCNodes.Add(int64(counter))
							return nil, err
						}
					}
					stack = append(stack, int32(to))
					onStack[to] = true
					call = append(call, sccFrame{node: to})
				} else if onStack[to] && index[to] < low[q] {
					low[q] = index[to]
				}
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].node
				if low[q] < low[p] {
					low[p] = low[q]
				}
			}
			if low[q] == index[q] {
				start := len(buf)
				for {
					m := int(stack[len(stack)-1])
					stack = stack[:len(stack)-1]
					onStack[m] = false
					buf = append(buf, m)
					if m == q {
						break
					}
				}
				comp := buf[start:len(buf):len(buf)]
				slices.Sort(comp)
				comps = append(comps, comp)
			}
		}
	}
	cntSCCNodes.Add(int64(counter))
	return comps, nil
}

// CyclicFunc reports whether the node set contains an edge internal to
// the set, over the same indexed edge access as SCCsFunc. n bounds the
// node id space (for the membership bitset).
func CyclicFunc(n int, set []int, deg func(int) int, edge func(int, int) int) bool {
	in := NewBitSet(n)
	for _, q := range set {
		in.Set(q)
	}
	for _, q := range set {
		for i, d := 0, deg(q); i < d; i++ {
			if in.Get(edge(q, i)) {
				return true
			}
		}
	}
	return false
}
