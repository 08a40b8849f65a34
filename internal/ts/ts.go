// Package ts implements fair transition systems — the program model the
// paper's verification examples live in ([MP83]): finite-state systems
// whose transitions carry weak-fairness (justice) or strong-fairness
// (compassion) requirements, generating the computations that properties
// classify.
package ts

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/alphabet"
)

// Fairness is the fairness requirement attached to a transition.
type Fairness int

// The three fairness levels of §4.
const (
	// Unfair transitions carry no requirement.
	Unfair Fairness = iota + 1
	// Weak fairness (justice): a transition continuously enabled from
	// some point on must be taken infinitely often.
	Weak
	// Strong fairness (compassion): a transition enabled infinitely
	// often must be taken infinitely often.
	Strong
)

func (f Fairness) String() string {
	switch f {
	case Unfair:
		return "unfair"
	case Weak:
		return "weak"
	case Strong:
		return "strong"
	default:
		return fmt.Sprintf("Fairness(%d)", int(f))
	}
}

// Transition is one named program transition: a relation on states with a
// fairness requirement. It is enabled at a state iff it has at least one
// successor there.
//
// A transition collects its steps until Builder.Build freezes the system;
// from then on its queries read the system's successor rows and Step
// panics.
type Transition struct {
	Name  string
	Fair  Fairness
	steps [][2]int // (from, to) in Step order; nil once built
	sys   *System  // the built system, nil before Build
	idx   int32    // index in sys.trans
}

// Successors returns the transition's successors at state s (nil if
// disabled).
func (t *Transition) Successors(s int) []int {
	return append([]int(nil), t.SuccessorsShared(s)...)
}

// SuccessorsShared is Successors without the defensive copy: the slice is
// shared with the system and must not be mutated. It exists for the hot
// exploration loops; concurrent queries over one system may read it from
// many goroutines at once, which is safe exactly because nothing is
// allocated or written.
func (t *Transition) SuccessorsShared(s int) []int {
	if t.sys == nil {
		var out []int
		for _, st := range t.steps {
			if st[0] == s {
				out = append(out, st[1])
			}
		}
		return out
	}
	lo, hi := t.sys.span(s, t.idx)
	return t.sys.to[lo:hi:hi]
}

// Enabled reports whether the transition is enabled at s.
func (t *Transition) Enabled(s int) bool { return len(t.SuccessorsShared(s)) > 0 }

// Step adds a step from → to to the transition. A built system is
// immutable: Step on one of its transitions panics.
func (t *Transition) Step(from, to int) *Transition {
	if t.sys != nil {
		panic(fmt.Sprintf("ts: Step on transition %q after Build", t.Name))
	}
	t.steps = append(t.steps, [2]int{from, to})
	return t
}

// System is an immutable fair transition system.
//
// Its successor relation is frozen at Build into dense rows: the edges
// leaving state s are positions off[s] to off[s+1] of et (the index of
// the transition taking the edge) and to (its target), ordered by
// transition and, within a transition, in Step order. all holds every
// state's deduplicated, sorted successors the same way, delimited by
// aoff.
//
// A state's valuation is a bit row over the sorted props: words uint64s
// per state, back to back in bits. A hand-built system keeps the names
// its states were declared with; a generated one (the protocol families)
// keeps no names and formats them on demand through nameOf, which reads
// only immutable data, so a System is safe for concurrent readers.
type System struct {
	names  []string
	nameOf func(int) string
	props  []string
	words  int
	bits   []uint64
	init   []int
	trans  []*Transition
	off    []int32
	et     []int32
	to     []int
	aoff   []int32
	all    []int
	reach  []int
}

// Builder assembles a System.
//
// States are declared by name with State. The protocol families declare
// them through buildReachable instead: unnamed, with their propositions as
// bit masks over a fixed family list, and a name formatter for StateName.
type Builder struct {
	names  []string
	index  map[string]int
	labels [][]string // per named state, its true propositions sorted and distinct
	err    error      // the first conflicting redeclaration

	famProps []string         // generated states: the family's propositions
	masks    []uint64         // generated states: true propositions as bits over famProps
	nameOf   func(int) string // generated states: name of state i

	init  []int
	trans []*Transition
	built bool
}

// NewBuilder returns an empty system builder.
func NewBuilder() *Builder {
	return &Builder{index: map[string]int{}}
}

// State declares (or retrieves) a named state; trueProps are the atomic
// propositions holding there. Declaring an existing name again with the
// same propositions returns its state; with different propositions it is
// an error at Build time.
func (b *Builder) State(name string, trueProps ...string) int {
	label := slices.Clone(trueProps)
	slices.Sort(label)
	label = slices.Compact(label)
	if i, ok := b.index[name]; ok {
		if b.err == nil && !slices.Equal(label, b.labels[i]) {
			b.err = fmt.Errorf("ts: state %q redeclared with propositions {%s}, declared with {%s}",
				name, strings.Join(label, ","), strings.Join(b.labels[i], ","))
		}
		return i
	}
	i := len(b.names)
	b.index[name] = i
	b.names = append(b.names, name)
	b.labels = append(b.labels, label)
	return i
}

// numStates returns the number of states declared so far.
func (b *Builder) numStates() int {
	if b.nameOf != nil {
		return len(b.masks)
	}
	return len(b.names)
}

// SetInit marks states as initial.
func (b *Builder) SetInit(states ...int) { b.init = append(b.init, states...) }

// Transition declares a named transition with the given fairness and
// returns it for step population.
func (b *Builder) Transition(name string, fair Fairness) *Transition {
	t := &Transition{Name: name, Fair: fair}
	b.trans = append(b.trans, t)
	return t
}

// AddIdle gives every state an unfair self-loop, making the system
// deadlock-free (the paper's convention of extending terminating
// computations by repeating the final state).
func (b *Builder) AddIdle() {
	idle := b.Transition("idle", Unfair)
	for s := range b.numStates() {
		idle.Step(s, s)
	}
}

// Build validates and freezes the system: no state redeclared with
// different propositions, at least one state and initial state, all step
// endpoints in range, and no deadlocked reachable state. On success the
// builder's transitions belong to the system and accept no further steps;
// a builder builds at most one system.
func (b *Builder) Build() (*System, error) {
	if b.built {
		return nil, fmt.Errorf("ts: builder already built its system")
	}
	if b.err != nil {
		return nil, b.err
	}
	n := b.numStates()
	if n == 0 {
		return nil, fmt.Errorf("ts: no states")
	}
	if len(b.init) == 0 {
		return nil, fmt.Errorf("ts: no initial states")
	}
	for _, s := range b.init {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("ts: initial state %d out of range", s)
		}
	}
	edges := 0
	for _, t := range b.trans {
		for _, st := range t.steps {
			if st[0] < 0 || st[0] >= n {
				return nil, fmt.Errorf("ts: transition %s step from %d out of range", t.Name, st[0])
			}
			if st[1] < 0 || st[1] >= n {
				return nil, fmt.Errorf("ts: transition %s step to %d out of range", t.Name, st[1])
			}
		}
		edges += len(t.steps)
	}
	sys := &System{
		init:  append([]int(nil), b.init...),
		trans: b.trans,
	}
	if b.nameOf != nil {
		sys.nameOf = b.nameOf
		sys.labelMasks(b.famProps, b.masks)
	} else {
		sys.names = append([]string(nil), b.names...)
		sys.labelNamed(b.labels)
	}
	sys.freeze(n, edges)
	for _, s := range sys.reach {
		if sys.aoff[s] == sys.aoff[s+1] {
			return nil, fmt.Errorf("ts: reachable state %q is deadlocked (use AddIdle)", sys.StateName(s))
		}
	}
	for i, t := range b.trans {
		t.sys, t.idx, t.steps = sys, int32(i), nil
	}
	b.built = true
	return sys, nil
}

// labelNamed sets props to the propositions of the declared labels and
// lays the labels out as bit rows.
func (s *System) labelNamed(labels [][]string) {
	for _, l := range labels {
		s.props = append(s.props, l...)
	}
	slices.Sort(s.props)
	s.props = slices.Compact(s.props)
	s.alloc(len(labels))
	for i, l := range labels {
		row := s.bits[i*s.words:]
		for _, p := range l {
			k, _ := slices.BinarySearch(s.props, p)
			row[k>>6] |= 1 << (k & 63)
		}
	}
}

// labelMasks sets props to the family propositions some state makes true,
// sorted, and translates each state's mask over famProps into a bit row
// over props.
func (s *System) labelMasks(famProps []string, masks []uint64) {
	var used uint64
	for _, m := range masks {
		used |= m
	}
	var byName []int // the used family bits, in proposition order
	for b := range famProps {
		if used&(1<<b) != 0 {
			byName = append(byName, b)
		}
	}
	slices.SortFunc(byName, func(x, y int) int { return strings.Compare(famProps[x], famProps[y]) })
	var pos [64]int // family bit → position in props
	for k, b := range byName {
		s.props = append(s.props, famProps[b])
		pos[b] = k
	}
	s.alloc(len(masks))
	for i, m := range masks {
		row := s.bits[i*s.words:]
		for ; m != 0; m &= m - 1 {
			k := pos[bits.TrailingZeros64(m)]
			row[k>>6] |= 1 << (k & 63)
		}
	}
}

// alloc sizes the bit rows of n states over props.
func (s *System) alloc(n int) {
	s.words = (len(s.props) + 63) / 64
	s.bits = make([]uint64, n*s.words)
}

// freeze lays the transitions' steps out as the system's successor rows
// and computes the reachable states.
func (s *System) freeze(n, edges int) {
	s.off = make([]int32, n+1)
	for _, t := range s.trans {
		for _, st := range t.steps {
			s.off[st[0]+1]++
		}
	}
	for i := 0; i < n; i++ {
		s.off[i+1] += s.off[i]
	}
	s.et = make([]int32, edges)
	s.to = make([]int, edges)
	next := append([]int32(nil), s.off[:n]...)
	for ti, t := range s.trans {
		for _, st := range t.steps {
			i := next[st[0]]
			s.et[i], s.to[i] = int32(ti), st[1]
			next[st[0]]++
		}
	}
	// Deduplicated rows: stamp[v] == q+1 marks v as already in row q.
	stamp := make([]int32, n)
	s.aoff = make([]int32, n+1)
	s.all = make([]int, 0, edges)
	for q := 0; q < n; q++ {
		start := len(s.all)
		for _, v := range s.to[s.off[q]:s.off[q+1]] {
			if stamp[v] != int32(q+1) {
				stamp[v] = int32(q + 1)
				s.all = append(s.all, v)
			}
		}
		slices.Sort(s.all[start:])
		s.aoff[q+1] = int32(len(s.all))
	}
	seen := make([]bool, n)
	var stack []int
	for _, i := range s.init {
		if !seen[i] {
			seen[i] = true
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range s.AllSuccessors(q) {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	for q, ok := range seen {
		if ok {
			s.reach = append(s.reach, q)
		}
	}
}

// span returns the positions of transition t's edges in state q's row.
func (s *System) span(q int, t int32) (lo, hi int) {
	lo, end := int(s.off[q]), int(s.off[q+1])
	for lo < end && s.et[lo] < t {
		lo++
	}
	for hi = lo; hi < end && s.et[hi] == t; hi++ {
	}
	return lo, hi
}

// NumStates returns the number of states.
func (s *System) NumStates() int { return len(s.off) - 1 }

// StateName returns the name of state i. A generated system formats it
// from the state's configuration on each call.
func (s *System) StateName(i int) string {
	if s.nameOf != nil {
		return s.nameOf(i)
	}
	return s.names[i]
}

// StateIndex returns the index of a named state, or -1. It scans the
// states' names.
func (s *System) StateIndex(name string) int {
	for i := range s.NumStates() {
		if s.StateName(i) == name {
			return i
		}
	}
	return -1
}

// Bits returns state i's valuation as a bit row over Props(): proposition
// Props()[k] holds at i iff bit k%64 of word k/64 is set. The row is
// shared with the system and must not be mutated.
func (s *System) Bits(i int) []uint64 {
	lo, hi := i*s.words, (i+1)*s.words
	return s.bits[lo:hi:hi]
}

// PropIndex returns the position of proposition p in Props(), or -1 when
// no state of the system makes p true.
func (s *System) PropIndex(p string) int {
	k, ok := slices.BinarySearch(s.props, p)
	if !ok {
		return -1
	}
	return k
}

// Holds reports whether proposition p is true at state i.
func (s *System) Holds(i int, p string) bool {
	k := s.PropIndex(p)
	return k >= 0 && s.bits[i*s.words+k>>6]&(1<<(k&63)) != 0
}

// TrueProps returns the propositions true at state i, sorted, in a fresh
// slice.
func (s *System) TrueProps(i int) []string {
	var out []string
	for k, p := range s.props {
		if s.bits[i*s.words+k>>6]&(1<<(k&63)) != 0 {
			out = append(out, p)
		}
	}
	return out
}

// Props returns the sorted proposition names used by the system.
func (s *System) Props() []string { return append([]string(nil), s.props...) }

// Init returns the initial states.
func (s *System) Init() []int { return append([]int(nil), s.init...) }

// Transitions returns the system's transitions.
func (s *System) Transitions() []*Transition { return s.trans }

// Edges returns state q's successor row: trans[i] is the index (in
// Transitions) of the transition taking edge i and to[i] its target. The
// row lists the transitions in order, each one's successors in Step
// order. Both slices are shared with the system and must not be mutated.
func (s *System) Edges(q int) (trans []int32, to []int) {
	lo, hi := s.off[q], s.off[q+1]
	return s.et[lo:hi:hi], s.to[lo:hi:hi]
}

// AllSuccessors returns the successors of a state across all transitions
// (deduplicated, sorted). The slice is shared with the system and must
// not be mutated.
func (s *System) AllSuccessors(state int) []int {
	lo, hi := s.aoff[state], s.aoff[state+1]
	return s.all[lo:hi:hi]
}

// ReachableStates returns the states reachable from the initial states,
// sorted.
func (s *System) ReachableStates() []int { return append([]int(nil), s.reach...) }

// Symbol returns the state's valuation symbol restricted to the given
// propositions — the letter the state contributes to a property
// automaton's input word. It builds the symbol afresh on each call.
func (s *System) Symbol(state int, props []string) alphabet.Symbol {
	v := alphabet.Valuation{}
	for _, p := range props {
		if s.Holds(state, p) {
			v[p] = true
		}
	}
	return v.Symbol()
}
