package autkern

import (
	"context"
	"math/bits"
	"slices"

	"repro/internal/budget"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
)

// Frontier is the on-the-fly state-space explorer behind every lazy
// product of the pipeline: omega's N-way Streett product (ProductExplorer)
// and mc's system × property-automaton product. A state is a fixed-width
// key of int32 components; the caller supplies the width and a successor
// function, and the frontier interns keys to dense ids, closes states in
// discovery order, governs every closed state and shards large waves
// across workers.
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
// context's budget — in state order, whatever the worker count.
//
// A Frontier is not safe for concurrent use; concurrent queries each
// build their own. The successor function, however, runs on the wave
// workers concurrently and must only read shared state.
type Frontier struct {
	succ   func(key, dst []int32) []int32
	site   string
	m      *FrontierMetrics
	index  keyTable
	rows   [][]int // successor rows; nil until the state is closed
	closed int     // states 0..closed-1 have rows
	buf    []int32 // successor scratch of the sequential path
	slab   []int   // the sequential path's block rows are carved from
}

// Successor rows are carved from blocks: a row costs an allocation only
// when it opens a new block. Blocks start at minRowSlab entries and
// double up to maxRowSlab, so a small product pays for a small block.
const (
	minRowSlab = 64
	maxRowSlab = 1024
)

// FrontierMetrics are the counters a caller's frontiers feed, registered
// under the caller's own metric names.
type FrontierMetrics struct {
	closed, waves, shards, handoffs, steals *obs.Counter
}

// NewFrontierMetrics registers (or finds) the closed-state counter named
// closed and the sharded-wave counters parallel+".waves", ".shards",
// ".handoffs" and ".steals".
func NewFrontierMetrics(closed, parallel string) *FrontierMetrics {
	return &FrontierMetrics{
		closed:   obs.NewCounter(closed),
		waves:    obs.NewCounter(parallel + ".waves"),
		shards:   obs.NewCounter(parallel + ".shards"),
		handoffs: obs.NewCounter(parallel + ".handoffs"),
		steals:   obs.NewCounter(parallel + ".steals"),
	}
}

// NewFrontier returns an empty frontier over keys of the given width
// (at least 1). succ appends the successor keys of key to dst, width
// components each, and returns the extended slice; the successors' order
// is the order of the state's row. site is the fault-injection site hit
// once per closed state.
func NewFrontier(width int, site string, m *FrontierMetrics, succ func(key, dst []int32) []int32) *Frontier {
	return &Frontier{succ: succ, site: site, m: m, index: keyTable{width: width}}
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
// monotone: a limit at or below the closed count is a no-op.
//
// When the context carries a parallelism bound above 1 (par.WithJobs),
// each wave — the states discovered but not yet closed — that par.Split
// deems large enough is sharded across workers and merged at a barrier.
// The two paths are bit-identical in every observable: states close in id
// order either way, successor keys are interned in (state, row position)
// order either way (the barrier merge walks chunks in ascending order, see
// exploreWave), and the governance prefix runs sequentially in state order
// either way. So ids, rows, verdicts built on them and state counts never
// depend on the worker count or interleaving.
func (f *Frontier) Explore(ctx context.Context, limit int) (done bool, err error) {
	before := f.closed
	defer func() {
		if d := f.closed - before; d > 0 {
			f.m.closed.Add(int64(d))
		}
	}()
	for f.closed < len(f.rows) && f.closed < limit {
		end := min(len(f.rows), limit)
		chunks := par.Split(ctx, f.closed, end)
		if chunks == nil {
			// Sequential: close this wave state by state; the wave it
			// discovers may be large enough to shard.
			for f.closed < end {
				if err := f.admit(ctx); err != nil {
					return false, err
				}
				f.rows[f.closed] = f.row(f.closed, &f.buf, &f.slab, f.Add)
				f.closed++
			}
			continue
		}
		// Govern the whole wave before any worker touches it. On error the
		// wave shrinks to the admitted prefix, so the closed count, the
		// budget spend and Nth-hit fault semantics degrade exactly as the
		// sequential path does.
		admitted := f.closed
		for ; admitted < end; admitted++ {
			if err = f.admit(ctx); err != nil {
				break
			}
		}
		if admitted > f.closed {
			f.exploreWave(ctx, clip(chunks, admitted))
		}
		if err != nil {
			return false, err
		}
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

// row computes state q's successor row into the scratch buffer buf,
// mapping each successor key to an id with resolve. The row is carved
// from the block *slab, which is replaced by a fresh, larger one when it
// runs short.
func (f *Frontier) row(q int, buf *[]int32, slab *[]int, resolve func(key []int32) int) []int {
	w := f.index.width
	*buf = f.succ(f.Key(q), (*buf)[:0])
	n := len(*buf) / w
	if cap(*slab)-len(*slab) < n {
		*slab = make([]int, 0, max(n, min(2*cap(*slab), maxRowSlab), minRowSlab))
	}
	lo := len(*slab)
	*slab = (*slab)[:lo+n]
	row := (*slab)[lo : lo+n : lo+n]
	for i := range row {
		row[i] = resolve((*buf)[i*w : (i+1)*w])
	}
	return row
}

// clip truncates contiguous chunks to end at end.
func clip(chunks [][2]int, end int) [][2]int {
	for i := range chunks {
		if chunks[i][1] >= end {
			chunks[i][1] = end
			return chunks[:i+1]
		}
	}
	return chunks
}

// exploreWave closes the admitted wave covered by chunks. Workers fill
// each state's row, resolving successor keys through the global table
// read-only and recording unknown keys in a chunk-local table (rows carry
// the placeholder -(local+1) for those). At the barrier the chunk tables
// are merged into the global one in chunk order — chunks are ascending
// state ranges and each chunk table lists first local occurrences in
// (state, row position) order, so the merged intern order is exactly the
// sequential scan's first-seen order. The placeholders are then rewritten
// through each chunk's remap.
func (f *Frontier) exploreWave(ctx context.Context, chunks [][2]int) {
	local := make([]keyTable, len(chunks))
	st := par.Run(ctx, len(chunks), func(ci int) {
		sh := &local[ci]
		sh.width = f.index.width
		resolve := func(key []int32) int {
			if g, ok := f.index.lookup(key); ok {
				return g
			}
			l, _ := sh.intern(key)
			return -(l + 1)
		}
		var buf []int32
		var slab []int
		for q := chunks[ci][0]; q < chunks[ci][1]; q++ {
			f.rows[q] = f.row(q, &buf, &slab, resolve)
		}
	})
	handoffs := 0
	for ci, c := range chunks {
		sh := &local[ci]
		remap := make([]int, sh.len())
		for l := range remap {
			remap[l] = f.Add(sh.key(l))
		}
		handoffs += len(remap)
		for _, row := range f.rows[c[0]:c[1]] {
			for i, v := range row {
				if v < 0 {
					row[i] = remap[-v-1]
				}
			}
		}
	}
	f.closed = chunks[len(chunks)-1][1]
	f.m.waves.Inc()
	f.m.shards.Add(int64(len(chunks)))
	f.m.handoffs.Add(int64(handoffs))
	f.m.steals.Add(int64(st.Steals))
}

// keyTable is the dense interner over fixed-width int32 keys: ids are
// assigned 0, 1, 2, ... in first-seen order, keys live back to back in
// one slice, and an open-addressing table of id+1 slots (0 = empty, load
// at most 1/2, linear probing) indexes them. Fresh keys cost no
// allocation beyond amortized growth. lookup is a pure read, safe from
// many goroutines while no intern runs — the sharded waves probe the
// global table that way while recording misses in chunk-local tables.
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

func (t *keyTable) lookup(key []int32) (int, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := int(hashKey(key) >> t.shift); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return 0, false
		}
		if slices.Equal(t.key(int(s-1)), key) {
			return int(s - 1), true
		}
	}
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
