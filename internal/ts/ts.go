// Package ts implements fair transition systems — the program model the
// paper's verification examples live in ([MP83]): finite-state systems
// whose transitions carry weak-fairness (justice) or strong-fairness
// (compassion) requirements, generating the computations that properties
// classify.
package ts

import (
	"fmt"
	"slices"
	"sort"

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
// exploration loops — the sharded product workers read successor sets
// from many goroutines at once, which is safe exactly because nothing is
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
type System struct {
	names []string
	valu  []alphabet.Valuation
	init  []int
	trans []*Transition
	props []string
	off   []int32
	et    []int32
	to    []int
	aoff  []int32
	all   []int
	reach []int
}

// Builder assembles a System.
type Builder struct {
	names   []string
	index   map[string]int
	valu    []alphabet.Valuation
	init    []int
	trans   []*Transition
	propSet map[string]bool
	built   bool
}

// NewBuilder returns an empty system builder.
func NewBuilder() *Builder {
	return &Builder{index: map[string]int{}, propSet: map[string]bool{}}
}

// State declares (or retrieves) a named state; trueProps are the atomic
// propositions holding there. Declaring an existing name with different
// propositions is an error at Build time.
func (b *Builder) State(name string, trueProps ...string) int {
	if i, ok := b.index[name]; ok {
		return i
	}
	i := len(b.names)
	b.index[name] = i
	b.names = append(b.names, name)
	v := alphabet.Valuation{}
	for _, p := range trueProps {
		v[p] = true
		b.propSet[p] = true
	}
	b.valu = append(b.valu, v)
	return i
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
	for s := range b.names {
		idle.Step(s, s)
	}
}

// Build validates and freezes the system: at least one state and initial
// state, all step endpoints in range, and no deadlocked reachable state.
// On success the builder's transitions belong to the system and accept no
// further steps; a builder builds at most one system.
func (b *Builder) Build() (*System, error) {
	if b.built {
		return nil, fmt.Errorf("ts: builder already built its system")
	}
	n := len(b.names)
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
		names: append([]string(nil), b.names...),
		valu:  append([]alphabet.Valuation(nil), b.valu...),
		init:  append([]int(nil), b.init...),
		trans: b.trans,
	}
	for p := range b.propSet {
		sys.props = append(sys.props, p)
	}
	sort.Strings(sys.props)
	sys.freeze(edges)
	for _, s := range sys.reach {
		if sys.aoff[s] == sys.aoff[s+1] {
			return nil, fmt.Errorf("ts: reachable state %q is deadlocked (use AddIdle)", sys.names[s])
		}
	}
	for i, t := range b.trans {
		t.sys, t.idx, t.steps = sys, int32(i), nil
	}
	b.built = true
	return sys, nil
}

// freeze lays the transitions' steps out as the system's successor rows
// and computes the reachable states.
func (s *System) freeze(edges int) {
	n := len(s.names)
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
func (s *System) NumStates() int { return len(s.names) }

// StateName returns the name of state i.
func (s *System) StateName(i int) string { return s.names[i] }

// StateIndex returns the index of a named state, or -1.
func (s *System) StateIndex(name string) int {
	for i, n := range s.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Valuation returns the proposition valuation of state i (shared; do not
// mutate).
func (s *System) Valuation(i int) alphabet.Valuation { return s.valu[i] }

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
// automaton's input word.
func (s *System) Symbol(state int, props []string) alphabet.Symbol {
	v := alphabet.Valuation{}
	for _, p := range props {
		if s.valu[state][p] {
			v[p] = true
		}
	}
	return v.Symbol()
}
