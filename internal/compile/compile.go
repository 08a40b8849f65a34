// Package compile translates past temporal formulas into deterministic
// finite automata: the [LPZ85]/[Zuc86] construction behind the paper's
// Proposition 5.3. The DFA for a past formula p accepts exactly the finite
// words that end-satisfy p, so lang.FromDFA of the result is the paper's
// finitary property esat(p), and the four temporal prefixes □, ◇, □◇, ◇□
// become lang.A, lang.E, lang.R, lang.P of it.
package compile

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/autkern"
	"repro/internal/budget"
	"repro/internal/dfa"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/lang"
	"repro/internal/ltl"
	"repro/internal/obs"
)

var (
	cntPastDFACalls  = obs.NewCounter("compile.past2dfa.calls")
	cntPastDFAStates = obs.NewCounter("compile.past2dfa.states")
)

// ErrTooManyStates is returned when the subset construction exceeds its
// state cap. It unwraps to budget.ErrBudgetExceeded: the package-local
// cap is one instance of the pipeline-wide budget discipline, so callers
// can match either the specific or the general sentinel.
var ErrTooManyStates = fmt.Errorf("compile: state cap exceeded: %w", budget.ErrBudgetExceeded)

// ErrNotPast is returned when a formula expected to be a past formula
// contains future operators.
var ErrNotPast = errors.New("compile: not a past formula")

// DefaultStateCap bounds the number of DFA states materialized by
// PastToDFA before it gives up. The closure construction can in principle
// reach 2^|subformulas| states; real specification formulas stay tiny.
const DefaultStateCap = 1 << 16

// PastToDFA compiles a past formula into a complete deterministic
// automaton over the valuation alphabet 2^props accepting exactly the
// non-empty finite words that end-satisfy the formula. props must cover
// the formula's propositions; pass nil to use exactly those.
//
// States are the reachable truth assignments to the formula's past
// closure: the value of every past subformula at the current position is
// determined by its value at the previous position and the current
// valuation, so the assignment vector is a deterministic finite memory.
func PastToDFA(p ltl.Formula, props []string) (*dfa.DFA, error) {
	return PastToDFACapped(p, props, DefaultStateCap)
}

// PastToDFACapped is PastToDFA with an explicit state cap.
func PastToDFACapped(p ltl.Formula, props []string, capStates int) (*dfa.DFA, error) {
	if !ltl.IsPastFormula(p) {
		return nil, fmt.Errorf("%w: %v", ErrNotPast, p)
	}
	if props == nil {
		props = ltl.Props(p)
	} else {
		have := map[string]bool{}
		for _, pr := range props {
			have[pr] = true
		}
		for _, pr := range ltl.Props(p) {
			if !have[pr] {
				return nil, fmt.Errorf("compile: proposition %q of %v missing from %v", pr, p, props)
			}
		}
	}
	alpha, err := alphabet.Valuations(props)
	if err != nil {
		return nil, err
	}
	return pastToDFAOver(context.Background(), p, alpha, capStates)
}

// PastToDFAOverAlphabet compiles a past formula over an explicit symbol
// alphabet (e.g. plain letters, where a proposition holds at the symbol
// with the same name). Used for the paper's finite-Σ examples.
func PastToDFAOverAlphabet(p ltl.Formula, alpha *alphabet.Alphabet) (*dfa.DFA, error) {
	return PastToDFAOverAlphabetCtx(context.Background(), p, alpha)
}

// PastToDFAOverAlphabetCtx is PastToDFAOverAlphabet with cooperative
// cancellation and resource governance: the construction polls the
// context and charges each materialized state against the context's
// budget in addition to the package-local cap.
func PastToDFAOverAlphabetCtx(ctx context.Context, p ltl.Formula, alpha *alphabet.Alphabet) (*dfa.DFA, error) {
	if !ltl.IsPastFormula(p) {
		return nil, fmt.Errorf("%w: %v", ErrNotPast, p)
	}
	return pastToDFAOver(ctx, p, alpha, DefaultStateCap)
}

func pastToDFAOver(ctx context.Context, p ltl.Formula, alpha *alphabet.Alphabet, capStates int) (*dfa.DFA, error) {
	ctx, sp := obs.Start(ctx, "compile.past2dfa")
	sp.Stringer("formula", p).Int("alphabet", alpha.Size())
	defer sp.End()
	cntPastDFACalls.Inc()

	subs := ltl.Subformulas(p) // children before parents
	idx := map[string]int{}
	for i, s := range subs {
		idx[s.String()] = i
	}
	top := idx[p.String()]
	k := alpha.Size()

	// Precompute, per symbol, which propositions hold.
	holdsAt := make([]map[string]bool, k)
	for si := 0; si < k; si++ {
		m := map[string]bool{}
		for _, pr := range ltl.Props(p) {
			m[pr] = eval.HoldsAtSymbol(alpha.Symbol(si), pr)
		}
		holdsAt[si] = m
	}

	// step computes the truth vector at the new position from the previous
	// vector (nil at the initial position) and the input symbol.
	step := func(prev []bool, si int) []bool {
		cur := make([]bool, len(subs))
		at := func(f ltl.Formula) bool { return cur[idx[f.String()]] }
		was := func(f ltl.Formula) (bool, bool) { // (value, hadPrev)
			if prev == nil {
				return false, false
			}
			return prev[idx[f.String()]], true
		}
		for i, s := range subs {
			switch t := s.(type) {
			case ltl.True:
				cur[i] = true
			case ltl.False:
				cur[i] = false
			case ltl.Prop:
				cur[i] = holdsAt[si][t.Name]
			case ltl.Not:
				cur[i] = !at(t.F)
			case ltl.And:
				cur[i] = at(t.L) && at(t.R)
			case ltl.Or:
				cur[i] = at(t.L) || at(t.R)
			case ltl.Implies:
				cur[i] = !at(t.L) || at(t.R)
			case ltl.Iff:
				cur[i] = at(t.L) == at(t.R)
			case ltl.Prev:
				v, had := was(t.F)
				cur[i] = had && v
			case ltl.WeakPrev:
				v, had := was(t.F)
				cur[i] = !had || v
			case ltl.Since:
				v, had := was(s)
				cur[i] = at(t.R) || (at(t.L) && had && v)
			case ltl.Back:
				v, had := was(s)
				cur[i] = at(t.R) || (at(t.L) && (!had || v))
			case ltl.Once:
				v, _ := was(s)
				cur[i] = at(t.F) || v
			case ltl.Historically:
				v, had := was(s)
				cur[i] = at(t.F) && (!had || v)
			default:
				// Future operators are excluded by the IsPastFormula guard.
				panic(fmt.Sprintf("compile: unexpected %T", s))
			}
		}
		return cur
	}

	keyBuf := make([]byte, 0, 16)
	key := func(v []bool) []byte {
		b := keyBuf[:0]
		for i := 0; i < (len(v)+7)/8; i++ {
			b = append(b, 0)
		}
		for i, x := range v {
			if x {
				b[i/8] |= 1 << (i % 8)
			}
		}
		keyBuf = b
		return b
	}

	// BFS over reachable truth vectors; state 0 is the initial (ε)
	// pseudo-state, kept out of the interner (vector ids are offset by 1).
	type stateInfo struct {
		vec []bool // nil for the initial state
	}
	states := []stateInfo{{vec: nil}}
	index := autkern.NewKeyInterner()
	var trans [][]int
	var accept []bool
	trans = append(trans, make([]int, k))
	accept = append(accept, false)
	for qi := 0; qi < len(states); qi++ {
		if len(states) > capStates {
			return nil, fmt.Errorf("%w (> %d)", ErrTooManyStates, capStates)
		}
		if err := fault.Hit(fault.SiteCompilePast); err != nil {
			return nil, err
		}
		if err := budget.Poll(ctx, 0); err != nil {
			return nil, err
		}
		if err := budget.ChargeStates(ctx, 1); err != nil {
			return nil, err
		}
		for si := 0; si < k; si++ {
			nv := step(states[qi].vec, si)
			id, fresh := index.Intern(key(nv))
			ni := id + 1
			if fresh {
				states = append(states, stateInfo{vec: nv})
				trans = append(trans, make([]int, k))
				accept = append(accept, nv[top])
			}
			trans[qi][si] = ni
		}
	}
	d, err := dfa.New(alpha, trans, 0, accept)
	if err != nil {
		return nil, err
	}
	m, err := d.MinimizeCtx(ctx)
	if err != nil {
		return nil, err
	}
	sp.Int("raw_states", len(states)).Int("states", m.NumStates())
	cntPastDFAStates.Add(int64(m.NumStates()))
	return m, nil
}

// Esat compiles a past formula into the paper's finitary property
// esat(p) over 2^props (props nil = formula's own propositions).
func Esat(p ltl.Formula, props []string) (*lang.Property, error) {
	d, err := PastToDFA(p, props)
	if err != nil {
		return nil, err
	}
	return lang.FromDFA(d), nil
}

// EsatOverAlphabet is Esat over an explicit symbol alphabet.
func EsatOverAlphabet(p ltl.Formula, alpha *alphabet.Alphabet) (*lang.Property, error) {
	d, err := PastToDFAOverAlphabet(p, alpha)
	if err != nil {
		return nil, err
	}
	return lang.FromDFA(d), nil
}
