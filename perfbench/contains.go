package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/alphabet"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/ltl"
	"repro/internal/omega"
	"repro/internal/patterns"
	"repro/internal/word"
)

// answer is a spec-contains case's known verdict.
type answer int

const (
	holds   answer = iota // true by construction
	fails                 // false by construction; the witness must separate
	unknown               // a false verdict passes only with a separating witness
)

// containsCase is one spec-contains query. Formula operands carry their
// text; counter operands their moduli. Operands are compiled or built in
// set-up, never inside the timed window.
type containsCase struct {
	Group string // fairness, counters or refinement
	Kind  engine.CheckKind
	Name  string
	Left  string // formula text, or a counter description
	Right string
	Props []string // compile both formula operands over these
	Want  answer

	counter           func() (a, b *omega.Automaton) // counter operands
	left, right       *omega.Automaton
	leftAcc, rightAcc func(word.Lasso) (bool, error) // lasso membership per operand
}

// fairness returns ∧ᵢ(GF pᵢ → GF qᵢ) and ∧ᵢ GF qᵢ for i in the given
// order, with the sorted proposition list.
func fairness(order []int) (fair, live string, props []string) {
	var a, b []string
	for _, i := range order {
		a = append(a, fmt.Sprintf("(G F p%d -> G F q%d)", i, i))
		b = append(b, fmt.Sprintf("G F q%d", i))
		props = append(props, fmt.Sprintf("p%d", i), fmt.Sprintf("q%d", i))
	}
	sort.Strings(props)
	return strings.Join(a, " & "), strings.Join(b, " & "), props
}

// coprimePair draws m1 from [lo, hi] and the coprime m2 nearest above
// target/m1, so m1·m2 stays close to target.
func coprimePair(rng *rand.Rand, lo, hi, target int) (int, int) {
	m1 := lo + rng.Intn(hi-lo+1)
	m2 := target / m1
	if m2 < 2 {
		m2 = 2
	}
	for gcd(m1, m2) != 1 {
		m2++
	}
	return m1, m2
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// containsCases returns the seeded spec-contains inputs: fairness
// conjunctions for k = 2..5 in both directions plus equivalences,
// counter families with early-exit and full-exploration containment, and
// refinement pairs of catalog instances (A vs A ∧ B).
func containsCases(seed int64, smoke bool) []containsCase {
	rng := rand.New(rand.NewSource(seed))
	var out []containsCase
	maxK := 5
	if smoke {
		maxK = 3
	}
	for k := 2; k <= maxK; k++ {
		fair, live, props := fairness(perm1(rng, k))
		fair2, live2, _ := fairness(perm1(rng, k))
		name := fmt.Sprintf("fairness k=%d", k)
		out = append(out,
			containsCase{Group: "fairness", Kind: engine.CheckContains, Name: name, Left: fair, Right: live, Props: props, Want: holds},
			containsCase{Group: "fairness", Kind: engine.CheckContains, Name: name, Left: live, Right: fair, Props: props, Want: fails},
			containsCase{Group: "fairness", Kind: engine.CheckEquivalent, Name: name, Left: live, Right: live2, Props: props, Want: holds},
		)
		if k < 5 {
			out = append(out,
				containsCase{Group: "fairness", Kind: engine.CheckEquivalent, Name: name, Left: fair, Right: fair2, Props: props, Want: holds},
				containsCase{Group: "fairness", Kind: engine.CheckEquivalent, Name: name, Left: live, Right: fair, Props: props, Want: fails},
			)
		}
	}

	ab := alphabet.MustLetters("ab")
	counters := 3
	if smoke {
		counters = 1
	}
	for i := 0; i < counters; i++ {
		m1, m2 := coprimePair(rng, 80, 100, 8000)
		desc := fmt.Sprintf("ShallowCounterexample(%d,%d)", m1, m2)
		out = append(out, containsCase{Group: "counters", Kind: engine.CheckContains, Name: desc,
			Left: desc + ".a", Right: desc + ".b", Want: fails,
			counter: func() (a, b *omega.Automaton) { return gen.ShallowCounterexample(ab, m1, m2) }})
		n1, n2 := coprimePair(rng, 25, 40, 1100)
		desc = fmt.Sprintf("NestedCounters(%d,%d)", n1, n2)
		nested := func() (a, b *omega.Automaton) { return gen.NestedCounters(ab, n1, n2) }
		out = append(out,
			containsCase{Group: "counters", Kind: engine.CheckContains, Name: desc,
				Left: desc + ".a", Right: desc + ".b", Want: holds, counter: nested},
			// L(b) ⊊ L(a): a word that stops counting at n1 is in a only.
			containsCase{Group: "counters", Kind: engine.CheckEquivalent, Name: desc,
				Left: desc + ".a", Right: desc + ".b", Want: fails, counter: nested},
		)
	}

	cat := patterns.Catalog()
	pairs := 20
	if smoke {
		pairs = 3
	}
	for i := 0; i < pairs; i++ {
		a, b := catalogInstance(rng, cat[rng.Intn(len(cat))]), catalogInstance(rng, cat[rng.Intn(len(cat))])
		both := ltl.And{L: ltl.MustParse(a.Text), R: ltl.MustParse(b.Text)}.String()
		name := a.Name + " vs " + a.Name + " & " + b.Name
		out = append(out,
			containsCase{Group: "refinement", Kind: engine.CheckContains, Name: name, Left: a.Text, Right: both, Props: props, Want: holds},
			containsCase{Group: "refinement", Kind: engine.CheckContains, Name: name, Left: both, Right: a.Text, Props: props, Want: unknown},
		)
	}
	return out
}

// perm1 is a seeded permutation of 1..k.
func perm1(rng *rand.Rand, k int) []int {
	p := rng.Perm(k)
	for i := range p {
		p[i]++
	}
	return p
}

// prepare compiles (or builds) every case's operands on one fresh
// engine, as the workload's set-up.
func prepare(ctx context.Context, cases []containsCase) error {
	eng := engine.New()
	compiled := map[string]*omega.Automaton{}
	compile := func(text string, props []string) (*omega.Automaton, ltl.Formula, error) {
		f, err := ltl.Parse(text)
		if err != nil {
			return nil, nil, err
		}
		key := strings.Join(props, ",") + "|" + text
		if a, ok := compiled[key]; ok {
			return a, f, nil
		}
		a, err := eng.CompileFormula(ctx, f, props)
		if err != nil {
			return nil, nil, fmt.Errorf("compile %q: %w", text, err)
		}
		compiled[key] = a
		return a, f, nil
	}
	for i := range cases {
		c := &cases[i]
		var err error
		if c.counter != nil {
			c.left, c.right = c.counter()
			c.leftAcc, c.rightAcc = c.left.Accepts, c.right.Accepts
			continue
		}
		var lf, rf ltl.Formula
		if c.left, lf, err = compile(c.Left, c.Props); err != nil {
			return err
		}
		if c.right, rf, err = compile(c.Right, c.Props); err != nil {
			return err
		}
		c.leftAcc = func(w word.Lasso) (bool, error) { return eval.Holds(lf, w) }
		c.rightAcc = func(w word.Lasso) (bool, error) { return eval.Holds(rf, w) }
	}
	return nil
}

// judgeContains checks a verdict against the case's known answer. A
// false verdict must carry a witness that separates the operands: in
// L(right) − L(left) for containment, in the symmetric difference for
// equivalence.
func judgeContains(c *containsCase, v engine.Verdict) (bool, string) {
	if v.Holds {
		if c.Want == fails {
			return false, "verdict holds, known answer fails"
		}
		return true, ""
	}
	if c.Want == holds {
		return false, "verdict fails, known answer holds"
	}
	if v.Witness.IsZero() {
		return false, "false verdict without a witness"
	}
	inL, err := c.leftAcc(v.Witness)
	if err != nil {
		return false, "witness on left operand: " + err.Error()
	}
	inR, err := c.rightAcc(v.Witness)
	if err != nil {
		return false, "witness on right operand: " + err.Error()
	}
	sep := inR && !inL
	if c.Kind == engine.CheckEquivalent {
		sep = inR != inL
	}
	if !sep {
		return false, fmt.Sprintf("witness %v does not separate the operands (left %v, right %v)", v.Witness, inL, inR)
	}
	return true, ""
}

// runContains is the spec-contains workload: a fresh engine per pass
// over operands compiled in set-up.
func runContains(r *report) error {
	ctx := context.Background()
	cases := containsCases(r.opts.seed, r.opts.smoke)
	for i := 0; i < containsSetupRuns; i++ {
		start := time.Now()
		if err := prepare(ctx, cases); err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(start))
	}
	return r.runPasses(func(tr *tracer, pass int) {
		eng := engine.New()
		rng := rand.New(rand.NewSource(r.opts.seed*7919 + int64(pass)))
		for _, i := range rng.Perm(len(cases)) {
			c := &cases[i]
			start := time.Now()
			v, err := eng.Check(ctx, engine.CheckRequest{Kind: c.Kind, Left: c.left, Right: c.right})
			d := time.Since(start)
			r.record(d, tr != nil)
			tr.add("engine.contains."+v.Tier.String(), d)
			ok, why := false, ""
			if err == nil {
				ok, why = judgeContains(c, v)
			}
			r.judge(c.String(), err, ok, why)
		}
	})
}

// containsSetupRuns is how many times spec-contains compiles its
// operands; each compilation takes about as long as a pass.
const containsSetupRuns = 3

func (c *containsCase) String() string {
	op := "⊇"
	if c.Kind == engine.CheckEquivalent {
		op = "≡"
	}
	return fmt.Sprintf("%s: %s %s %s", c.Name, c.Left, op, c.Right)
}
