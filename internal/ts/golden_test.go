package ts

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/systems.golden from the current builders")

// goldenSystems lists the systems pinned by testdata/systems.golden, in
// file order.
func goldenSystems() []struct {
	name  string
	build func() (*System, error)
} {
	type entry = struct {
		name  string
		build func() (*System, error)
	}
	var out []entry
	for _, fair := range []Fairness{Weak, Strong} {
		for _, n := range []int{3, 4} {
			fair, n := fair, n
			out = append(out, entry{fmt.Sprintf("RingMutex(%d,%s)", n, fair),
				func() (*System, error) { return RingMutex(n, fair) }})
		}
	}
	out = append(out,
		entry{"LeaderElection(4)", func() (*System, error) { return LeaderElection(4) }},
		entry{"CacheCoherence(3)", func() (*System, error) { return CacheCoherence(3) }})
	for _, sym := range []bool{true, false} {
		for _, fair := range []Fairness{Weak, Strong} {
			sym, fair := sym, fair
			out = append(out, entry{fmt.Sprintf("DiningPhilosophers(3,%v,%s)", sym, fair),
				func() (*System, error) { return DiningPhilosophers(3, sym, fair) }})
		}
	}
	for _, pol := range []ElevatorPolicy{Nearest, Scan} {
		pol := pol
		out = append(out, entry{fmt.Sprintf("Elevator(%s)", pol),
			func() (*System, error) { return Elevator(pol) }})
	}
	for _, fair := range []Fairness{Weak, Strong} {
		fair := fair
		out = append(out, entry{fmt.Sprintf("Semaphore(%s)", fair),
			func() (*System, error) { return Semaphore(fair) }})
	}
	return append(out,
		entry{"Peterson", Peterson},
		entry{"TrivialMutex", TrivialMutex})
}

// renderSystems renders one line per state of every golden system: the
// system, the state's index and name, its true propositions and its
// AllSuccessors row.
func renderSystems(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, g := range goldenSystems() {
		sys, err := g.build()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for i := 0; i < sys.NumStates(); i++ {
			fmt.Fprintf(&sb, "%s\t%d\t%s\t{%s}\t%v\n", g.name, i, sys.StateName(i),
				strings.Join(sys.TrueProps(i), ","), sys.AllSuccessors(i))
		}
	}
	return sb.String()
}

// TestGoldenSystems pins every state of the generated and hand-built
// systems — its name, propositions and successor row — to
// testdata/systems.golden, so a change to how systems are stored must
// reproduce them byte for byte. Regenerate with
// `go test ./internal/ts -run TestGoldenSystems -update` only when a
// family's model is meant to change.
func TestGoldenSystems(t *testing.T) {
	path := filepath.Join("testdata", "systems.golden")
	got := renderSystems(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, path, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, %s has %d", len(gl), path, len(wl))
}

// TestStateIndexRoundTrip: every state's name leads back to the state.
func TestStateIndexRoundTrip(t *testing.T) {
	for _, g := range goldenSystems() {
		sys, err := g.build()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for i := 0; i < sys.NumStates(); i++ {
			if got := sys.StateIndex(sys.StateName(i)); got != i {
				t.Fatalf("%s: StateIndex(%q) = %d, want %d", g.name, sys.StateName(i), got, i)
			}
		}
	}
}
