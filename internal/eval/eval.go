// Package eval implements the semantics of temporal formulas (§4): the
// satisfaction relation (σ, j) ⊨ p over infinite computations, and the
// end-satisfaction relation σ ⊩ p of past formulas over finite words, on
// which the paper's esat(p) finitary properties are built.
//
// Infinite computations are lasso words u·v^ω. Evaluation is exact: the
// truth sequence of every subformula along an ultimately periodic word is
// itself ultimately periodic; the evaluator computes that representation
// bottom-up. Future operators are resolved by scanning one full period
// past the stabilization point (a sound least-fixpoint cutoff), past
// operators by running their forward recurrence one extra period (the
// one-bit transfer function of a monotone recurrence stabilizes after a
// single iteration).
//
// Semantic conventions: U and S are the standard strict-free strong
// versions (p U q: q eventually holds and p holds at all positions before
// it); W and B are their weak counterparts; ◯⁻ (Y) is strong previous and
// ◯̃⁻ (Z) weak previous. On symbols that are proposition valuations
// ("{p,q}"), a proposition holds iff the valuation sets it; on plain
// symbols, the proposition named like the symbol holds (the paper's
// finite-Σ convention where states double as propositions).
package eval

import (
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/word"
)

var (
	cntHoldsChecks  = obs.NewCounter("eval.holds.checks")
	cntEndSatChecks = obs.NewCounter("eval.endsat.checks")
)

// seq is an ultimately periodic boolean sequence: pre is the transient,
// loop the repeating part (non-empty).
type seq struct {
	pre  []bool
	loop []bool
}

func (s seq) at(j int) bool {
	if j < len(s.pre) {
		return s.pre[j]
	}
	return s.loop[(j-len(s.pre))%len(s.loop)]
}

// makeSeq materializes a sequence with transient length t and period l
// from a pointwise function assumed periodic (period l) beyond t.
func makeSeq(t, l int, at func(int) bool) seq {
	s := seq{pre: make([]bool, t), loop: make([]bool, l)}
	for j := 0; j < t; j++ {
		s.pre[j] = at(j)
	}
	for i := 0; i < l; i++ {
		s.loop[i] = at(t + i)
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// align returns a common shape (transient, period) for combining
// sequences.
func align(xs ...seq) (int, int) {
	t, l := 0, 1
	for _, x := range xs {
		if len(x.pre) > t {
			t = len(x.pre)
		}
		l = lcm(l, len(x.loop))
	}
	return t, l
}

// HoldsAtSymbol reports whether proposition name holds at the given
// symbol: valuation symbols are decoded, plain symbols match by name.
func HoldsAtSymbol(s alphabet.Symbol, name string) bool {
	if v, err := alphabet.ParseValuation(s); err == nil {
		return v.Holds(name)
	}
	return string(s) == name
}

// Evaluator computes truth sequences of formulas over one lasso word,
// memoizing shared subformulas.
type Evaluator struct {
	w    word.Lasso
	memo map[string]seq
	mLen int // |u|
	lLen int // |v|
}

// NewEvaluator prepares evaluation over the given lasso word.
func NewEvaluator(w word.Lasso) *Evaluator {
	return &Evaluator{
		w:    w,
		memo: map[string]seq{},
		mLen: w.PrefixLen(),
		lLen: w.LoopLen(),
	}
}

// EvalAt reports whether (σ, j) ⊨ f.
func (e *Evaluator) EvalAt(f ltl.Formula, j int) (bool, error) {
	s, err := e.sequence(f)
	if err != nil {
		return false, err
	}
	return s.at(j), nil
}

// Holds reports whether σ ⊨ f, i.e. (σ, 0) ⊨ f.
func (e *Evaluator) Holds(f ltl.Formula) (bool, error) { return e.EvalAt(f, 0) }

// TruthSequence returns the ultimately periodic truth sequence of f along
// the word, as (transient, loop) copies.
func (e *Evaluator) TruthSequence(f ltl.Formula) (pre, loop []bool, err error) {
	s, err := e.sequence(f)
	if err != nil {
		return nil, nil, err
	}
	return append([]bool(nil), s.pre...), append([]bool(nil), s.loop...), nil
}

func (e *Evaluator) sequence(f ltl.Formula) (seq, error) {
	key := f.String()
	if s, ok := e.memo[key]; ok {
		return s, nil
	}
	s, err := e.compute(f)
	if err != nil {
		return seq{}, err
	}
	e.memo[key] = s
	return s, nil
}

func (e *Evaluator) compute(f ltl.Formula) (seq, error) {
	switch t := f.(type) {
	case ltl.True:
		return seq{loop: []bool{true}}, nil
	case ltl.False:
		return seq{loop: []bool{false}}, nil
	case ltl.Prop:
		return makeSeq(e.mLen, e.lLen, func(j int) bool {
			return HoldsAtSymbol(e.w.At(j), t.Name)
		}), nil
	case ltl.Not:
		x, err := e.sequence(t.F)
		if err != nil {
			return seq{}, err
		}
		tt, ll := align(x)
		return makeSeq(tt, ll, func(j int) bool { return !x.at(j) }), nil
	case ltl.And:
		return e.binary(t.L, t.R, func(a, b bool) bool { return a && b })
	case ltl.Or:
		return e.binary(t.L, t.R, func(a, b bool) bool { return a || b })
	case ltl.Implies:
		return e.binary(t.L, t.R, func(a, b bool) bool { return !a || b })
	case ltl.Iff:
		return e.binary(t.L, t.R, func(a, b bool) bool { return a == b })
	case ltl.Next:
		x, err := e.sequence(t.F)
		if err != nil {
			return seq{}, err
		}
		tt, ll := align(x)
		return makeSeq(tt, ll, func(j int) bool { return x.at(j + 1) }), nil
	case ltl.Eventually:
		return e.untilSeq(ltl.True{}, t.F)
	case ltl.Always:
		// □f = ¬◇¬f.
		return e.sequence(ltl.Not{F: ltl.Eventually{F: ltl.Not{F: t.F}}})
	case ltl.Until:
		return e.untilSeq(t.L, t.R)
	case ltl.Unless:
		// L W R = (L U R) ∨ □L.
		return e.sequence(ltl.Or{L: ltl.Until{L: t.L, R: t.R}, R: ltl.Always{F: t.L}})
	case ltl.Prev:
		x, err := e.sequence(t.F)
		if err != nil {
			return seq{}, err
		}
		tt, ll := align(x)
		return makeSeq(tt+1, ll, func(j int) bool { return j > 0 && x.at(j-1) }), nil
	case ltl.WeakPrev:
		x, err := e.sequence(t.F)
		if err != nil {
			return seq{}, err
		}
		tt, ll := align(x)
		return makeSeq(tt+1, ll, func(j int) bool { return j == 0 || x.at(j-1) }), nil
	case ltl.Since:
		return e.pastRecurrence(t.L, t.R, false)
	case ltl.Back:
		// L B R = (L S R) ∨ □⁻L.
		return e.sequence(ltl.Or{L: ltl.Since{L: t.L, R: t.R}, R: ltl.Historically{F: t.L}})
	case ltl.Once:
		return e.pastRecurrence(ltl.True{}, t.F, false)
	case ltl.Historically:
		// □⁻f computed as its own recurrence: h(j) = f(j) ∧ h(j−1).
		return e.pastRecurrence(t.F, ltl.False{}, true)
	default:
		return seq{}, fmt.Errorf("eval: unknown formula %T", f)
	}
}

func (e *Evaluator) binary(l, r ltl.Formula, op func(a, b bool) bool) (seq, error) {
	x, err := e.sequence(l)
	if err != nil {
		return seq{}, err
	}
	y, err := e.sequence(r)
	if err != nil {
		return seq{}, err
	}
	tt, ll := align(x, y)
	return makeSeq(tt, ll, func(j int) bool { return op(x.at(j), y.at(j)) }), nil
}

// untilSeq computes L U R: at position j, scan forward; beyond one full
// period past the stabilization point the pattern repeats, so an
// unresolved scan means the least fixpoint is false.
func (e *Evaluator) untilSeq(l, r ltl.Formula) (seq, error) {
	x, err := e.sequence(l)
	if err != nil {
		return seq{}, err
	}
	y, err := e.sequence(r)
	if err != nil {
		return seq{}, err
	}
	tt, ll := align(x, y)
	at := func(j int) bool {
		hi := j
		if tt > hi {
			hi = tt
		}
		hi += ll
		for k := j; k <= hi; k++ {
			if y.at(k) {
				return true
			}
			if !x.at(k) {
				return false
			}
		}
		return false
	}
	return makeSeq(tt, ll, at), nil
}

// pastRecurrence computes L S R — s(j) = R(j) ∨ (L(j) ∧ s(j−1)) — or, when
// conj is true, □⁻L — h(j) = L(j) ∧ h(j−1). One extra period suffices for
// the (monotone, one-bit) per-period transfer function to stabilize.
func (e *Evaluator) pastRecurrence(l, r ltl.Formula, conj bool) (seq, error) {
	x, err := e.sequence(l)
	if err != nil {
		return seq{}, err
	}
	y, err := e.sequence(r)
	if err != nil {
		return seq{}, err
	}
	tt, ll := align(x, y)
	total := tt + 2*ll
	vals := make([]bool, total)
	prev := conj // s(−1): false for since, true for historically
	for j := 0; j < total; j++ {
		if conj {
			vals[j] = x.at(j) && prev
		} else {
			vals[j] = y.at(j) || (x.at(j) && prev)
		}
		prev = vals[j]
	}
	return seq{pre: vals[:tt+ll], loop: vals[tt+ll : total]}, nil
}

// Holds reports whether the lasso word satisfies the formula at position 0.
func Holds(f ltl.Formula, w word.Lasso) (bool, error) {
	cntHoldsChecks.Inc()
	return NewEvaluator(w).Holds(f)
}

// At reports whether (σ, j) ⊨ f.
func At(f ltl.Formula, w word.Lasso, j int) (bool, error) {
	return NewEvaluator(w).EvalAt(f, j)
}

// EndSatisfies reports whether the non-empty finite word end-satisfies the
// past formula p: p holds at the word's last position (σ ⊩ p, the paper's
// esat relation). Future operators are rejected.
func EndSatisfies(p ltl.Formula, w word.Finite) (bool, error) {
	if len(w) == 0 {
		return false, fmt.Errorf("eval: end-satisfaction needs a non-empty word")
	}
	if !ltl.IsPastFormula(p) {
		return false, fmt.Errorf("eval: %v is not a past formula", p)
	}
	cntEndSatChecks.Inc()
	vals, err := evalPastForward(p, w)
	if err != nil {
		return false, err
	}
	return vals[len(w)-1], nil
}

// evalPastForward computes the truth of a past formula at every position
// of a finite word by the forward recurrences.
func evalPastForward(p ltl.Formula, w word.Finite) ([]bool, error) {
	memo := map[string][]bool{}
	var eval func(f ltl.Formula) ([]bool, error)
	eval = func(f ltl.Formula) ([]bool, error) {
		key := f.String()
		if v, ok := memo[key]; ok {
			return v, nil
		}
		n := len(w)
		out := make([]bool, n)
		switch t := f.(type) {
		case ltl.True:
			for j := range out {
				out[j] = true
			}
		case ltl.False:
			// all false
		case ltl.Prop:
			for j := range out {
				out[j] = HoldsAtSymbol(w[j], t.Name)
			}
		case ltl.Not:
			x, err := eval(t.F)
			if err != nil {
				return nil, err
			}
			for j := range out {
				out[j] = !x[j]
			}
		case ltl.And, ltl.Or, ltl.Implies, ltl.Iff:
			ch := ltl.Children(f)
			x, err := eval(ch[0])
			if err != nil {
				return nil, err
			}
			y, err := eval(ch[1])
			if err != nil {
				return nil, err
			}
			for j := range out {
				switch f.(type) {
				case ltl.And:
					out[j] = x[j] && y[j]
				case ltl.Or:
					out[j] = x[j] || y[j]
				case ltl.Implies:
					out[j] = !x[j] || y[j]
				default:
					out[j] = x[j] == y[j]
				}
			}
		case ltl.Prev:
			x, err := eval(t.F)
			if err != nil {
				return nil, err
			}
			for j := 1; j < n; j++ {
				out[j] = x[j-1]
			}
		case ltl.WeakPrev:
			x, err := eval(t.F)
			if err != nil {
				return nil, err
			}
			out[0] = true
			for j := 1; j < n; j++ {
				out[j] = x[j-1]
			}
		case ltl.Since:
			x, err := eval(t.L)
			if err != nil {
				return nil, err
			}
			y, err := eval(t.R)
			if err != nil {
				return nil, err
			}
			prev := false
			for j := 0; j < n; j++ {
				out[j] = y[j] || (x[j] && prev)
				prev = out[j]
			}
		case ltl.Back:
			return eval(ltl.Or{L: ltl.Since{L: t.L, R: t.R}, R: ltl.Historically{F: t.L}})
		case ltl.Once:
			x, err := eval(t.F)
			if err != nil {
				return nil, err
			}
			prev := false
			for j := 0; j < n; j++ {
				out[j] = x[j] || prev
				prev = out[j]
			}
		case ltl.Historically:
			x, err := eval(t.F)
			if err != nil {
				return nil, err
			}
			prev := true
			for j := 0; j < n; j++ {
				out[j] = x[j] && prev
				prev = out[j]
			}
		default:
			return nil, fmt.Errorf("eval: %v is not a past formula", f)
		}
		memo[key] = out
		return out, nil
	}
	return eval(p)
}
