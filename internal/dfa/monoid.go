package dfa

import (
	"errors"
	"fmt"
)

// ErrMonoidTooLarge is returned when the transformation monoid exceeds the
// requested cap. The monoid of an n-state automaton can reach n^n elements.
var ErrMonoidTooLarge = errors.New("dfa: transformation monoid exceeds cap")

// Transformation is a total function on the automaton's states, represented
// as a slice: f[q] is the image of state q.
type Transformation []int

func (f Transformation) key() string {
	b := make([]byte, 0, len(f)*2)
	for _, v := range f {
		b = append(b, byte(v), byte(v>>8))
	}
	return string(b)
}

func compose(f, g Transformation) Transformation {
	// (f then g): q ↦ g[f[q]].
	out := make(Transformation, len(f))
	for q, v := range f {
		out[q] = g[v]
	}
	return out
}

// Monoid is the transformation monoid of a DFA: the set of state functions
// induced by all non-empty words, closed under composition.
type Monoid struct {
	elements []Transformation
	words    []string // a shortest-ish witness word per element, for diagnostics
}

// Size returns the number of distinct transformations.
func (m *Monoid) Size() int { return len(m.elements) }

// Elements returns the transformations (shared backing; treat as read-only).
func (m *Monoid) Elements() []Transformation { return m.elements }

// Witness returns a word inducing element i.
func (m *Monoid) Witness(i int) string { return m.words[i] }

// TransitionMonoid computes the transformation monoid of the automaton
// (over non-empty words) by closing the per-symbol functions under
// composition. It fails with ErrMonoidTooLarge if more than cap elements
// are generated; cap ≤ 0 means no cap.
func (d *DFA) TransitionMonoid(capSize int) (*Monoid, error) {
	n := d.NumStates()
	k := d.alpha.Size()
	gens := make([]Transformation, k)
	for s := 0; s < k; s++ {
		f := make(Transformation, n)
		for q := 0; q < n; q++ {
			f[q] = d.kern.Step(q, s)
		}
		gens[s] = f
	}
	seen := map[string]bool{}
	m := &Monoid{}
	add := func(f Transformation, w string) bool {
		key := f.key()
		if seen[key] {
			return false
		}
		seen[key] = true
		m.elements = append(m.elements, f)
		m.words = append(m.words, w)
		return true
	}
	for s, g := range gens {
		add(g, string(d.alpha.Symbol(s)))
	}
	for i := 0; i < len(m.elements); i++ {
		if capSize > 0 && len(m.elements) > capSize {
			return nil, fmt.Errorf("%w: > %d elements", ErrMonoidTooLarge, capSize)
		}
		for s, g := range gens {
			add(compose(m.elements[i], g), m.words[i]+string(d.alpha.Symbol(s)))
		}
	}
	if capSize > 0 && len(m.elements) > capSize {
		return nil, fmt.Errorf("%w: > %d elements", ErrMonoidTooLarge, capSize)
	}
	return m, nil
}

// IsAperiodic reports whether every element f of the monoid satisfies
// f^k = f^(k+1) for some k — equivalently, no element permutes a subset of
// states in a cycle of length > 1. For transformation monoids this is
// exactly counter-freeness of the automaton (McNaughton–Papert).
func (m *Monoid) IsAperiodic() bool {
	for _, f := range m.elements {
		if !transformationAperiodic(f) {
			return false
		}
	}
	return true
}

func transformationAperiodic(f Transformation) bool {
	// f is aperiodic iff every state's orbit ends in a fixed point of the
	// eventual cycle, i.e. all cycles of the functional graph have length 1.
	n := len(f)
	state := make([]int, n) // 0 unvisited, 1 in progress, 2 done
	for q := 0; q < n; q++ {
		if state[q] != 0 {
			continue
		}
		// Walk the functional path from q.
		var path []int
		cur := q
		for state[cur] == 0 {
			state[cur] = 1
			path = append(path, cur)
			cur = f[cur]
		}
		if state[cur] == 1 {
			// Found a new cycle; measure its length.
			length := 0
			x := cur
			for {
				length++
				x = f[x]
				if x == cur {
					break
				}
			}
			if length > 1 {
				return false
			}
		}
		for _, p := range path {
			state[p] = 2
		}
	}
	return true
}

// IsCounterFree reports whether the automaton is counter-free in the sense
// of the paper (§5): there is no finite word σ and state q with
// δ(q, σ^n) = q for some n > 1 but δ(q, σ) ≠ q. Equivalently, the
// transformation monoid is aperiodic. capSize bounds the monoid size
// (ErrMonoidTooLarge beyond it); cap ≤ 0 means unbounded.
func (d *DFA) IsCounterFree(capSize int) (bool, error) {
	m, err := d.TransitionMonoid(capSize)
	if err != nil {
		return false, err
	}
	return m.IsAperiodic(), nil
}
