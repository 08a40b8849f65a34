package omega

import (
	"context"
	"testing"

	"repro/internal/alphabet"
)

// labeledFixture builds a 3-state automaton over {a,b} with one
// unreachable state and a label on every state:
//
//	live --a--> live, live --b--> dead (absorbing), ghost unreachable.
//
// The single pair (∅, {live}) makes it the safety property "never b".
func labeledFixture(t *testing.T) *Automaton {
	t.Helper()
	alpha, err := alphabet.New("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(alpha, [][]int{{0, 1}, {1, 1}, {2, 2}}, 0, []Pair{{
		R: []bool{false, false, false},
		P: []bool{true, false, false},
	}})
	if err != nil {
		t.Fatal(err)
	}
	a.SetLabels([]string{"live", "dead", "ghost"})
	return a
}

// Labels must survive every derivation that keeps the state space intact
// or remaps it in a trackable way: WithPairs, ComplementSinglePair,
// SafetyClosure, LivenessExtension, WithStart (same numbering), Trim
// (remapped) and Intersect (combined "x|y").
func TestLabelsSurviveDerivations(t *testing.T) {
	a := labeledFixture(t)

	wp, err := a.WithPairs(a.Pairs())
	if err != nil {
		t.Fatal(err)
	}
	if got := wp.Label(0); got != "live" {
		t.Errorf("WithPairs dropped labels: Label(0) = %q", got)
	}

	comp, err := a.ComplementSinglePair()
	if err != nil {
		t.Fatal(err)
	}
	if got := comp.Label(1); got != "dead" {
		t.Errorf("ComplementSinglePair dropped labels: Label(1) = %q", got)
	}

	if got := a.SafetyClosure().Label(0); got != "live" {
		t.Errorf("SafetyClosure dropped labels: Label(0) = %q", got)
	}
	if got := a.LivenessExtension().Label(0); got != "live" {
		t.Errorf("LivenessExtension dropped labels: Label(0) = %q", got)
	}

	ws := a.WithStart(1)
	if got := ws.Label(1); got != "dead" {
		t.Errorf("WithStart dropped labels: Label(1) = %q", got)
	}
}

func TestLabelsRemappedByTrim(t *testing.T) {
	a := labeledFixture(t)
	tr := a.Trim()
	if tr.NumStates() != 2 {
		t.Fatalf("Trim kept %d states, want 2", tr.NumStates())
	}
	if got := tr.Label(tr.Start()); got != "live" {
		t.Errorf("Trim: start label = %q, want \"live\"", got)
	}
	found := false
	for q := 0; q < tr.NumStates(); q++ {
		if tr.Label(q) == "dead" {
			found = true
		}
		if tr.Label(q) == "ghost" {
			t.Errorf("Trim kept the label of an unreachable state")
		}
	}
	if !found {
		t.Errorf("Trim lost the label of a reachable state")
	}
}

func TestLabelsCombinedByIntersect(t *testing.T) {
	a := labeledFixture(t)
	b := labeledFixture(t)
	prod, err := a.Intersect(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := prod.Label(prod.Start()); got != "live|live" {
		t.Errorf("Intersect: start label = %q, want \"live|live\"", got)
	}
}

// ToSafetyAutomaton derives through SafetyClosure and Trim, both
// label-preserving, so canonical safety forms keep their labels too.
func TestLabelsSurviveToSafetyAutomaton(t *testing.T) {
	a := labeledFixture(t)
	safe, err := a.ToSafetyAutomaton()
	if err != nil {
		t.Fatalf("fixture is a safety property, ToSafetyAutomaton failed: %v", err)
	}
	if got := safe.Label(safe.Start()); got != "live" {
		t.Errorf("ToSafetyAutomaton dropped labels: start label = %q", got)
	}
}

// Reduce quotients states by bisimulation, so per-state labels have no
// canonical image; they are intentionally dropped and Label falls back to
// the numeric form.
func TestLabelsIntentionallyDroppedByReduce(t *testing.T) {
	a := labeledFixture(t)
	red := a.Reduce(context.Background())
	for q := 0; q < red.NumStates(); q++ {
		if got, want := red.Label(q), "q"+itoa(q); got != want {
			t.Errorf("Reduce: Label(%d) = %q, want fallback %q", q, got, want)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
