package autkern

import (
	"context"
	"math/bits"
	"slices"

	"repro/internal/budget"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Frontier is the on-the-fly state-space explorer behind every lazy
// product of the pipeline: omega's N-way Streett product (ProductExplorer)
// and mc's system × property-automaton product. A state is a fixed-width
// key of int32 components; the caller supplies the width and a successor
// function, and the frontier interns keys to dense ids, closes states in
// discovery order and governs every closed state.
//
// States move through two phases. A state is *discovered* when it is
// added as a root or some closed state's row targets it (it has an id but
// no row yet) and *closed* once its successor row has been computed.
// States close in id order, so the closed region is always a
// BFS-reachable prefix: every closed state is reachable from a root
// through closed states, and a search restricted to it sees a genuine
// subgraph of the full product.
//
// Every closed state first passes the governance prefix — the caller's
// fault site, a cancellation poll, one state charged against the
// context's budget — in state order.
//
// A Frontier is not safe for concurrent use; concurrent queries each
// build their own.
type Frontier struct {
	succ      func(key, dst []int32) []int32
	site      string
	closedCnt *obs.Counter
	index     keyTable
	rows      [][]int // successor rows; nil until the state is closed
	closed    int     // states 0..closed-1 have rows
	buf       []int32 // successor scratch
	slab      []int   // the block rows are carved from
}

// Successor rows are carved from blocks: a row costs an allocation only
// when it opens a new block. Blocks start at minRowSlab entries and
// double up to maxRowSlab, so a small product pays for a small block.
const (
	minRowSlab = 64
	maxRowSlab = 1024
)

// NewFrontier returns an empty frontier over keys of the given width
// (at least 1). succ appends the successor keys of key to dst, width
// components each, and returns the extended slice; the successors' order
// is the order of the state's row. site is the fault-injection site hit
// once per closed state, and closed is the caller's counter of closed
// states.
func NewFrontier(width int, site string, closed *obs.Counter, succ func(key, dst []int32) []int32) *Frontier {
	return &Frontier{succ: succ, site: site, closedCnt: closed, index: keyTable{width: width}}
}

// Add interns key as a discovered state (a root) and returns its id. It
// must not run concurrently with Explore.
func (f *Frontier) Add(key []int32) int {
	id, fresh := f.index.intern(key)
	if fresh {
		f.rows = append(f.rows, nil)
	}
	return id
}

// Key returns the key of state i. The slice is read-only.
func (f *Frontier) Key(i int) []int32 { return f.index.key(i) }

// Rows returns the successor rows of every discovered state, indexed by
// id: closed states carry their final rows, frontier states nil. The
// slice is read-only and valid until the next Explore call.
func (f *Frontier) Rows() [][]int { return f.rows }

// Closed returns the number of closed states: states 0..Closed()-1.
func (f *Frontier) Closed() int { return f.closed }

// Explore closes states in discovery order until either every discovered
// state is closed (done=true) or at least limit states are. Progress is
// monotone: a limit at or below the closed count is a no-op. Each state
// passes the governance prefix before its row is computed, so on error
// the closed count, the budget spend and Nth-hit fault semantics stop at
// the state that failed.
func (f *Frontier) Explore(ctx context.Context, limit int) (done bool, err error) {
	before := f.closed
	defer func() {
		if d := f.closed - before; d > 0 {
			f.closedCnt.Add(int64(d))
		}
	}()
	for f.closed < len(f.rows) && f.closed < limit {
		if err := f.admit(ctx); err != nil {
			return false, err
		}
		f.rows[f.closed] = f.row(f.closed)
		f.closed++
	}
	return f.closed == len(f.rows), nil
}

// admit is the per-state governance prefix: fault site, cancellation
// poll, one state charged against the context's budget.
func (f *Frontier) admit(ctx context.Context) error {
	if err := fault.Hit(f.site); err != nil {
		return err
	}
	if err := budget.Poll(ctx, 0); err != nil {
		return err
	}
	return budget.ChargeStates(ctx, 1)
}

// row computes state q's successor row, interning each successor key.
// The row is carved from the block f.slab, which is replaced by a fresh,
// larger one when it runs short.
func (f *Frontier) row(q int) []int {
	w := f.index.width
	f.buf = f.succ(f.Key(q), f.buf[:0])
	n := len(f.buf) / w
	if cap(f.slab)-len(f.slab) < n {
		f.slab = make([]int, 0, max(n, min(2*cap(f.slab), maxRowSlab), minRowSlab))
	}
	lo := len(f.slab)
	f.slab = f.slab[:lo+n]
	row := f.slab[lo : lo+n : lo+n]
	for i := range row {
		row[i] = f.Add(f.buf[i*w : (i+1)*w])
	}
	return row
}

// keyTable is the dense interner over fixed-width int32 keys: ids are
// assigned 0, 1, 2, ... in first-seen order, keys live back to back in
// one slice, and an open-addressing table of id+1 slots (0 = empty, load
// at most 1/2, linear probing) indexes them. Fresh keys cost no
// allocation beyond amortized growth.
type keyTable struct {
	width int
	keys  []int32 // key of id i at [i*width : (i+1)*width]
	slots []int32
	shift uint // 64 - log2(len(slots)): slot = hash >> shift
}

func (t *keyTable) len() int { return len(t.keys) / t.width }

func (t *keyTable) key(i int) []int32 {
	return t.keys[i*t.width : (i+1)*t.width : (i+1)*t.width]
}

// hashKey is a multiplicative (Fibonacci) hash; the table indexes by its
// top bits, which every component bit reaches.
func hashKey(key []int32) uint64 {
	var h uint64
	for _, v := range key {
		h = (h ^ uint64(uint32(v))) * 0x9e3779b97f4a7c15
	}
	return h
}

func (t *keyTable) intern(key []int32) (id int, fresh bool) {
	if 2*(t.len()+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := int(hashKey(key) >> t.shift); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			id = t.len()
			t.keys = append(t.keys, key...)
			t.slots[i] = int32(id + 1)
			return id, true
		}
		if slices.Equal(t.key(int(s-1)), key) {
			return int(s - 1), false
		}
	}
}

func (t *keyTable) grow() {
	size := max(16, 2*len(t.slots))
	t.slots = make([]int32, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for id := 0; id < t.len(); id++ {
		i := int(hashKey(t.key(id)) >> t.shift)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id + 1)
	}
}
