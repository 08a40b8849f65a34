package mc_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/par"
	"repro/internal/ts"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/verdicts.golden from the current model checker")

// goldenSystem is one system of the golden corpus with the formulas
// checked against it.
type goldenSystem struct {
	name     string
	build    func() (*ts.System, error)
	formulas []string
}

func specFormulas(specs []ts.ScenarioSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Formula
	}
	return out
}

// goldenCorpus lists every *Specs entry of the mid-sized protocol
// families plus the philosopher and elevator case studies, in a fixed
// order.
func goldenCorpus() []goldenSystem {
	var out []goldenSystem
	for _, fair := range []ts.Fairness{ts.Weak, ts.Strong} {
		fair := fair
		for _, n := range []int{3, 4} {
			n := n
			out = append(out, goldenSystem{fmt.Sprintf("RingMutex(%d,%s)", n, fair),
				func() (*ts.System, error) { return ts.RingMutex(n, fair) },
				specFormulas(ts.RingMutexSpecs(n, fair))})
		}
	}
	for _, n := range []int{3, 4} {
		n := n
		out = append(out, goldenSystem{fmt.Sprintf("LeaderElection(%d)", n),
			func() (*ts.System, error) { return ts.LeaderElection(n) },
			specFormulas(ts.LeaderElectionSpecs(n))})
	}
	for _, n := range []int{3, 4} {
		n := n
		out = append(out, goldenSystem{fmt.Sprintf("CacheCoherence(%d)", n),
			func() (*ts.System, error) { return ts.CacheCoherence(n) },
			specFormulas(ts.CacheCoherenceSpecs(n))})
	}
	philosophers := []string{
		"G !(e0 & e1)",
		"G F (e0 | e1 | e2) | F G (t0 & t1 & t2)",
		"G (h0 -> F e0)",
		"G (h2 -> F e2)",
	}
	for _, sym := range []bool{true, false} {
		for _, fair := range []ts.Fairness{ts.Weak, ts.Strong} {
			sym, fair := sym, fair
			out = append(out, goldenSystem{fmt.Sprintf("DiningPhilosophers(3,%v,%s)", sym, fair),
				func() (*ts.System, error) { return ts.DiningPhilosophers(3, sym, fair) },
				philosophers})
		}
	}
	elevator := []string{
		"G (open -> F !open)",
		"G (call0 -> (call0 W (at0 & open)))",
		"G (call0 -> F (at0 & open))",
		"G (call1 -> F (at1 & open))",
		"G (call2 -> F (at2 & open))",
	}
	for _, pol := range []ts.ElevatorPolicy{ts.Nearest, ts.Scan} {
		pol := pol
		out = append(out, goldenSystem{fmt.Sprintf("Elevator(%s)", pol),
			func() (*ts.System, error) { return ts.Elevator(pol) }, elevator})
	}
	return out
}

// renderVerdicts model-checks the golden corpus under ctx and renders one
// line per check: system, formula, verdict and, for a failed property,
// the counterexample's prefix and loop as state names.
func renderVerdicts(t *testing.T, ctx context.Context) string {
	t.Helper()
	var sb strings.Builder
	for _, g := range goldenCorpus() {
		sys, err := g.build()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for _, src := range g.formulas {
			res, err := mc.VerifyCtx(ctx, sys, ltl.MustParse(src))
			if err != nil {
				t.Fatalf("%s ⊨ %s: %v", g.name, src, err)
			}
			fmt.Fprintf(&sb, "%s\t%s\t", g.name, src)
			if res.Holds {
				sb.WriteString("holds\n")
				continue
			}
			pre, loop := res.Counterexample.Names(sys)
			fmt.Fprintf(&sb, "fails\t%s\t%s\n", strings.Join(pre, " -> "), strings.Join(loop, " -> "))
		}
	}
	return sb.String()
}

// TestGoldenVerdicts pins every verdict and counterexample of the golden
// corpus to testdata/verdicts.golden. The file records the model
// checker's output before the dense successor layout and the
// component-local refinement replaced the map-based ones; both keep the
// search order, so each trace must stay byte-identical. The corpus runs
// with one worker and with two workers under shrunk shard thresholds, so
// the sharded product waves are exercised too. Regenerate with
// `go test ./internal/mc -run TestGoldenVerdicts -update` only when a
// change to the search is intended.
func TestGoldenVerdicts(t *testing.T) {
	path := filepath.Join("testdata", "verdicts.golden")
	if *updateGolden {
		got := renderVerdicts(t, par.WithJobs(context.Background(), 1))
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 2} {
		ctx := par.WithJobs(context.Background(), jobs)
		if jobs > 1 {
			ctx = par.WithShardThresholds(ctx, 2, 1)
		}
		got := renderVerdicts(t, ctx)
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("jobs=%d: line %d differs from %s:\n got: %s\nwant: %s", jobs, i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("jobs=%d: %d lines, %s has %d", jobs, len(gl), path, len(wl))
	}
}
