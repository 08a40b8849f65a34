package ts_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/ts"
)

func TestBuilderStateDedup(t *testing.T) {
	b := ts.NewBuilder()
	a := b.State("s", "p")
	c := b.State("s") // same name → same state
	if a != c {
		t.Errorf("duplicate state name created two states: %d vs %d", a, c)
	}
}

func TestBuilderStateConflictingRedeclaration(t *testing.T) {
	b := ts.NewBuilder()
	a := b.State("A", "p")
	if again := b.State("A", "q"); again != a {
		t.Fatalf("redeclaration returned state %d, want %d", again, a)
	}
	b.SetInit(a)
	b.AddIdle()
	sys, err := b.Build()
	if err == nil {
		t.Fatalf("conflicting redeclaration built a system; A holds %v", sys.TrueProps(a))
	}
	if !strings.Contains(err.Error(), `"A"`) {
		t.Errorf("error %q does not name the state", err)
	}
}

func TestBuilderStateSameRedeclaration(t *testing.T) {
	b := ts.NewBuilder()
	a := b.State("A", "p", "q")
	if again := b.State("A", "q", "p", "q"); again != a {
		t.Fatalf("redeclaration returned state %d, want %d", again, a)
	}
	b.SetInit(a)
	b.AddIdle()
	sys, err := b.Build()
	if err != nil {
		t.Fatalf("same-propositions redeclaration: %v", err)
	}
	if got := sys.TrueProps(a); !slices.Equal(got, []string{"p", "q"}) {
		t.Errorf("A holds %v, want [p q]", got)
	}
}

func TestBuildValidatesRanges(t *testing.T) {
	b := ts.NewBuilder()
	s := b.State("s")
	b.SetInit(s)
	b.Transition("bad", ts.Unfair).Step(s, 99)
	if _, err := b.Build(); err == nil {
		t.Error("out-of-range step should fail")
	}

	b2 := ts.NewBuilder()
	s2 := b2.State("s")
	b2.SetInit(99)
	b2.Transition("loop", ts.Unfair).Step(s2, s2)
	if _, err := b2.Build(); err == nil {
		t.Error("out-of-range init should fail")
	}
}

func TestSystemAccessors(t *testing.T) {
	b := ts.NewBuilder()
	s0 := b.State("start", "p", "q")
	s1 := b.State("other")
	tr := b.Transition("go", ts.Weak)
	tr.Step(s0, s1).Step(s1, s0)
	b.SetInit(s0)
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumStates() != 2 {
		t.Errorf("NumStates = %d", sys.NumStates())
	}
	if sys.StateName(s0) != "start" {
		t.Errorf("StateName = %q", sys.StateName(s0))
	}
	if sys.StateIndex("other") != s1 || sys.StateIndex("missing") != -1 {
		t.Error("StateIndex broken")
	}
	if !sys.Holds(s0, "p") || sys.Holds(s1, "p") {
		t.Error("valuations broken")
	}
	props := sys.Props()
	if len(props) != 2 || props[0] != "p" || props[1] != "q" {
		t.Errorf("Props = %v", props)
	}
	if got := sys.Symbol(s0, []string{"p"}); got != "{p}" {
		t.Errorf("Symbol = %q", got)
	}
	if got := sys.Symbol(s0, []string{"r"}); got != "{}" {
		t.Errorf("Symbol with foreign prop = %q", got)
	}
	succ := sys.AllSuccessors(s0)
	if len(succ) != 1 || succ[0] != s1 {
		t.Errorf("AllSuccessors = %v", succ)
	}
	reach := sys.ReachableStates()
	if len(reach) != 2 {
		t.Errorf("ReachableStates = %v", reach)
	}
	if len(sys.Transitions()) != 1 {
		t.Error("Transitions lost")
	}
	if !sys.Transitions()[0].Enabled(s0) {
		t.Error("transition should be enabled at s0")
	}
}

func TestPetersonShape(t *testing.T) {
	sys, err := ts.Peterson()
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumStates() != 18 {
		t.Errorf("Peterson has %d states, want 18", sys.NumStates())
	}
	// Exactly one state should be both-critical per turn value, and no
	// reachable state may satisfy c1 ∧ c2 (checked in mc tests; here just
	// structural sanity).
	reach := sys.ReachableStates()
	if len(reach) == 0 || len(reach) > 18 {
		t.Errorf("reachable: %d", len(reach))
	}
	for _, s := range reach {
		v := func(p string) bool { return sys.Holds(s, p) }
		if v("c1") && v("c2") {
			t.Errorf("reachable state %q violates mutual exclusion", sys.StateName(s))
		}
	}
}

func TestSemaphoreShape(t *testing.T) {
	for _, fair := range []ts.Fairness{ts.Weak, ts.Strong} {
		sys, err := ts.Semaphore(fair)
		if err != nil {
			t.Fatal(err)
		}
		// Invariant baked into the encoding: sem free ⇔ nobody critical.
		for s := 0; s < sys.NumStates(); s++ {
			v := func(p string) bool { return sys.Holds(s, p) }
			somebodyIn := v("c1") || v("c2")
			if v("sem") == somebodyIn {
				t.Errorf("state %q breaks the semaphore invariant", sys.StateName(s))
			}
		}
	}
}

func TestTrivialMutexShape(t *testing.T) {
	sys, err := ts.TrivialMutex()
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < sys.NumStates(); s++ {
		if sys.Holds(s, "c1") || sys.Holds(s, "c2") {
			t.Error("trivial mutex must never be critical")
		}
	}
}

func TestTransitionSuccessorsCopy(t *testing.T) {
	b := ts.NewBuilder()
	s := b.State("s")
	tr := b.Transition("t", ts.Unfair)
	tr.Step(s, s)
	succ := tr.Successors(s)
	succ[0] = 99
	if tr.Successors(s)[0] != s {
		t.Error("Successors must return a copy")
	}
}

// TestStepAfterBuildPanics: a built System is immutable and shared
// by concurrent queries, so a late Step must fail loudly
// (naming the transition) instead of being silently lost.
func TestStepAfterBuildPanics(t *testing.T) {
	b := ts.NewBuilder()
	s := b.State("s")
	b.SetInit(s)
	tr := b.Transition("tick", ts.Weak)
	tr.Step(s, s)
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"tick"`) {
			t.Errorf("Step after Build: panic %q, want one naming the transition", msg)
		}
	}()
	tr.Step(s, s)
}

func TestBuildTwiceFails(t *testing.T) {
	b := ts.NewBuilder()
	b.SetInit(b.State("s"))
	b.AddIdle()
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Error("a second Build of the same builder should fail")
	}
}

// TestSuccessorRows checks the frozen layout: each state's row lists its
// edges transition by transition, each transition's steps in Step order
// (duplicates kept), while AllSuccessors deduplicates and sorts.
func TestSuccessorRows(t *testing.T) {
	b := ts.NewBuilder()
	s0, s1, s2 := b.State("a"), b.State("b"), b.State("c")
	b.SetInit(s0)
	x := b.Transition("x", ts.Weak)
	y := b.Transition("y", ts.Strong)
	// Steps arrive out of state order and interleaved across transitions.
	y.Step(s0, s1)
	x.Step(s1, s0)
	x.Step(s0, s2).Step(s0, s1)
	y.Step(s0, s2)
	x.Step(s0, s2)
	if got := x.Successors(s0); !slices.Equal(got, []int{s2, s1, s2}) {
		t.Errorf("before Build: x.Successors(a) = %v", got)
	}
	b.AddIdle()
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	trans, to := sys.Edges(s0)
	if want := []int32{0, 0, 0, 1, 1, 2}; !slices.Equal(trans, want) {
		t.Errorf("Edges(a) transitions = %v, want %v", trans, want)
	}
	if want := []int{s2, s1, s2, s1, s2, s0}; !slices.Equal(to, want) {
		t.Errorf("Edges(a) targets = %v, want %v", to, want)
	}
	if got := sys.AllSuccessors(s0); !slices.Equal(got, []int{s0, s1, s2}) {
		t.Errorf("AllSuccessors(a) = %v", got)
	}
	if got := x.Successors(s0); !slices.Equal(got, []int{s2, s1, s2}) {
		t.Errorf("x.Successors(a) = %v", got)
	}
	if got := y.SuccessorsShared(s1); len(got) != 0 || y.Enabled(s1) || !x.Enabled(s1) {
		t.Errorf("enabledness at b wrong: y.SuccessorsShared(b) = %v", got)
	}
	if got := x.SuccessorsShared(s2); len(got) != 0 {
		t.Errorf("x.SuccessorsShared(c) = %v, want none", got)
	}
	// A shared row is capacity-clipped: appending to it cannot overwrite
	// the next transition's edges.
	_ = append(x.SuccessorsShared(s0), 99)
	if _, to := sys.Edges(s0); to[3] != s1 {
		t.Error("append to a shared row overwrote the system")
	}
}

// TestReachableStatesIsACopy: the reachable set is computed once at Build;
// callers get their own copy.
func TestReachableStatesIsACopy(t *testing.T) {
	sys, err := ts.Peterson()
	if err != nil {
		t.Fatal(err)
	}
	r := sys.ReachableStates()
	r[0] = -1
	if sys.ReachableStates()[0] == -1 {
		t.Error("ReachableStates must return a copy")
	}
}

func TestBuildRejectsStepFromOutOfRange(t *testing.T) {
	b := ts.NewBuilder()
	s := b.State("s")
	b.SetInit(s)
	b.Transition("bad", ts.Unfair).Step(-1, s)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "bad") {
		t.Errorf("step from -1: err = %v, want one naming the transition", err)
	}
}

// TestBitRowsSpanWords: a system over more than 64 propositions lays
// each state's valuation out over several words, indexed by the sorted
// Props().
func TestBitRowsSpanWords(t *testing.T) {
	b := ts.NewBuilder()
	var props []string
	for i := 0; i < 70; i++ {
		props = append(props, fmt.Sprintf("p%02d", i))
	}
	all := b.State("all", props...)
	some := b.State("some", "p66", "p03")
	b.SetInit(all)
	b.AddIdle()
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Bits(some)); got != 2 {
		t.Fatalf("row of %d words, want 2", got)
	}
	if k := sys.PropIndex("p66"); k != 66 {
		t.Errorf("PropIndex(p66) = %d, want 66", k)
	}
	if row := sys.Bits(some); row[0] != 1<<3 || row[1] != 1<<2 {
		t.Errorf("row of some = %x, want bits 3 and 66", row)
	}
	if sys.PropIndex("q") != -1 || sys.Holds(some, "q") {
		t.Error("unknown proposition found")
	}
	if !sys.Holds(some, "p66") || sys.Holds(some, "p65") || !sys.Holds(all, "p69") {
		t.Error("Holds broken across words")
	}
	if got := sys.TrueProps(some); !slices.Equal(got, []string{"p03", "p66"}) {
		t.Errorf("TrueProps = %v", got)
	}
	if got := len(sys.TrueProps(all)); got != 70 {
		t.Errorf("all holds %d propositions, want 70", got)
	}
}
