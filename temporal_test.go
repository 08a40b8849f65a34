package temporal_test

import (
	"testing"

	temporal "repro"
)

func TestFacadeClassify(t *testing.T) {
	tests := []struct {
		f    string
		want temporal.Class
	}{
		{"G !(c1 & c2)", temporal.Safety},
		{"F done", temporal.Guarantee},
		{"G p | F q", temporal.Obligation},
		{"G (req -> F ack)", temporal.Recurrence},
		{"F G stable", temporal.Persistence},
		{"G F e -> G F t", temporal.Reactivity},
	}
	for _, tt := range tests {
		f, err := temporal.ParseFormula(tt.f)
		if err != nil {
			t.Fatalf("parse %q: %v", tt.f, err)
		}
		c, err := temporal.Classify(f)
		if err != nil {
			t.Fatalf("classify %q: %v", tt.f, err)
		}
		if c.Lowest() != tt.want {
			t.Errorf("%q: %v, want %v", tt.f, c.Lowest(), tt.want)
		}
	}
}

func TestFacadeLinguistic(t *testing.T) {
	ab, err := temporal.Letters("ab")
	if err != nil {
		t.Fatal(err)
	}
	phi, err := temporal.NewProperty(".*b", ab)
	if err != nil {
		t.Fatal(err)
	}
	builders := map[temporal.Class]*temporal.Automaton{
		temporal.Recurrence:  temporal.BuildR(phi),
		temporal.Persistence: temporal.BuildP(phi),
		temporal.Guarantee:   temporal.BuildE(phi),
	}
	for want, a := range builders {
		if got := temporal.ClassifyAutomaton(a).Lowest(); got != want {
			t.Errorf("builder for %v classified as %v", want, got)
		}
	}
	ob, err := temporal.SimpleObligation(phi, phi)
	if err != nil {
		t.Fatal(err)
	}
	if !temporal.ClassifyAutomaton(ob).Obligation {
		t.Error("SimpleObligation not an obligation")
	}
	sr, err := temporal.SimpleReactivity(phi, phi)
	if err != nil {
		t.Fatal(err)
	}
	if !temporal.ClassifyAutomaton(sr).Reactivity {
		t.Error("SimpleReactivity not reactive")
	}
}

func TestFacadeWordsAndEval(t *testing.T) {
	f := temporal.MustParseFormula("G (req -> F ack)")
	good := temporal.MustLasso("", "{req}{ack}")
	bad := temporal.MustLasso("{ack}", "{req}")
	ok, err := temporal.Holds(f, good)
	if err != nil || !ok {
		t.Errorf("good word should satisfy: %v %v", ok, err)
	}
	ok, err = temporal.Holds(f, bad)
	if err != nil || ok {
		t.Errorf("bad word should violate: %v %v", ok, err)
	}
	ok, err = temporal.HoldsAt(temporal.MustParseFormula("ack"), good, 1)
	if err != nil || !ok {
		t.Errorf("ack at 1: %v %v", ok, err)
	}
	if _, err := temporal.ParseWord("{unclosed", "{a}"); err == nil {
		t.Error("malformed valuation word should fail")
	}
	if _, err := temporal.ParseWord("", ""); err == nil {
		t.Error("empty loop should fail")
	}
	p := temporal.MustParseFormula("b & Z H a")
	w, err := temporal.ParseWord("aab", "a")
	if err != nil {
		t.Fatal(err)
	}
	es, err := temporal.EndSatisfies(p, w.PrefixPart())
	if err != nil || !es {
		t.Errorf("aab should end-satisfy b & Z H a: %v %v", es, err)
	}
}

func TestFacadeTopologyAndSL(t *testing.T) {
	ab, _ := temporal.Letters("ab")
	phi, _ := temporal.NewProperty(".*b", ab)
	r := temporal.BuildR(phi)
	if temporal.IsClosed(r) || temporal.IsOpen(r) || !temporal.IsGdelta(r) || temporal.IsFsigma(r) {
		t.Error("topology of □◇b wrong")
	}
	if !temporal.IsDense(r) || !temporal.IsLiveness(r) {
		t.Error("□◇b should be dense/live")
	}
	parts := temporal.DecomposeSL(r)
	ok, err := parts.SafetyPart.IsUniversal()
	if err != nil || !ok {
		t.Error("safety closure of a live property is Σ^ω")
	}
	if cl := temporal.Closure(r); cl == nil {
		t.Error("Closure nil")
	}
	uni, err := temporal.IsUniformLiveness(temporal.BuildE(phi), 64)
	if err != nil || !uni {
		t.Errorf("◇b uniformly live: %v %v", uni, err)
	}
}

// verify model-checks sys ⊨ f through the unified query entry.
func verify(sys *temporal.System, f string) (temporal.Verdict, error) {
	return temporal.Check(temporal.CheckRequest{
		Kind: temporal.CheckVerify, System: sys, Formula: temporal.MustParseFormula(f),
	})
}

func TestFacadeVerification(t *testing.T) {
	sys, err := temporal.Peterson()
	if err != nil {
		t.Fatal(err)
	}
	res, err := verify(sys, "G !(c1 & c2)")
	if err != nil || !res.Holds {
		t.Errorf("Peterson mutex: %v %v", res.Holds, err)
	}
	ok, _, err := temporal.Invariant(sys, temporal.MustParseFormula("!(c1 & c2)"))
	if err != nil || !ok {
		t.Errorf("Invariant: %v %v", ok, err)
	}
	if _, err := temporal.CheckInductive(sys, temporal.MustParseFormula("!(c1 & c2)")); err != nil {
		t.Errorf("CheckInductive: %v", err)
	}
	triv, err := temporal.TrivialMutex()
	if err != nil {
		t.Fatal(err)
	}
	res, err = verify(triv, "G (w1 -> F c1)")
	if err != nil || res.Holds {
		t.Error("trivial mutex must fail accessibility")
	}

	b := temporal.NewSystemBuilder()
	s0 := b.State("init", "start")
	s1 := b.State("end", "done")
	b.Transition("go", temporal.Weak).Step(s0, s1)
	b.Transition("stay", temporal.Unfair).Step(s1, s1)
	b.SetInit(s0)
	sys2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rank, err := temporal.ExtractRanking(sys2, temporal.MustParseFormula("start"), temporal.MustParseFormula("done"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rank.Validate(sys2); err != nil {
		t.Fatal(err)
	}
	res, err = verify(sys2, "F done")
	if err != nil || !res.Holds {
		t.Errorf("termination: %v %v", res.Holds, err)
	}
}

func TestFacadeNormalForm(t *testing.T) {
	f := temporal.MustParseFormula("G (p -> F q)")
	nf, err := temporal.Normalize(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(nf.Clauses) != 1 || nf.Clauses[0].Rec == nil {
		t.Errorf("response should normalize to one recurrence clause: %v", nf)
	}
	cls, _, err := temporal.SyntacticClass(f)
	if err != nil || cls != temporal.Recurrence {
		t.Errorf("SyntacticClass: %v %v", cls, err)
	}
}
