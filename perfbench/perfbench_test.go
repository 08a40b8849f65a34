package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/ltl"
	"repro/internal/patterns"
	"repro/internal/word"
)

// generated renders every workload's seeded inputs as text.
func generated(seed int64) map[string]string {
	dump := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return string(b)
	}
	var order []string
	for pass := 0; pass < 4; pass++ {
		sys, specs := scenarioOrder(seed, pass, scenarios(false))
		order = append(order, fmt.Sprint(sys, specs))
	}
	pool, err := daemonPoolFor(seed, 300)
	if err != nil {
		panic(err)
	}
	var bodies []string
	for _, p := range pool {
		bodies = append(bodies, string(p.body))
	}
	var draws []uint64
	for i := 0; i < daemonConns; i++ {
		z := callerZipf(seed, i, len(pool))
		for j := 0; j < 200; j++ {
			draws = append(draws, z.Uint64())
		}
	}
	return map[string]string{
		"spec-classify": dump([]any{classifyQueries(seed, 0, 300), classifyQueries(seed, 1, 300)}),
		"mc-scenarios":  dump(order),
		"spec-contains": dump(containsCases(seed, false)),
		"daemon-mixed":  dump([]any{bodies, draws}),
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	a, b, c := generated(1), generated(1), generated(2)
	for w := range workloads {
		if a[w] == "" {
			t.Errorf("%s: no generated inputs", w)
		}
		if a[w] != b[w] {
			t.Errorf("%s: the same seed gave different inputs", w)
		}
		if a[w] == c[w] {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w)
		}
	}
}

// below is the hierarchy's order (Figure 1), written out pair by pair
// rather than derived from join.
func below(a, b core.Class) bool {
	if a == b || b == core.Reactivity {
		return true
	}
	switch a {
	case core.Safety, core.Guarantee:
		return b == core.Obligation || b == core.Recurrence || b == core.Persistence
	case core.Obligation:
		return b == core.Recurrence || b == core.Persistence
	}
	return false
}

func TestJoinIsTheLeastUpperBound(t *testing.T) {
	all := []core.Class{core.Safety, core.Guarantee, core.Obligation, core.Recurrence, core.Persistence, core.Reactivity}
	for _, a := range all {
		for _, b := range all {
			j := join(a, b)
			if j != join(b, a) || !below(a, j) || !below(b, j) {
				t.Errorf("join(%v, %v) = %v is not a symmetric upper bound", a, b, j)
			}
			for _, u := range all {
				if below(a, u) && below(b, u) && !below(j, u) {
					t.Errorf("join(%v, %v) = %v is not below the upper bound %v", a, b, j, u)
				}
			}
		}
	}
}

func TestClassifyAnswersMatchTheCatalog(t *testing.T) {
	class := map[string]core.Class{}
	for _, e := range patterns.Catalog() {
		class[e.Name] = e.Class
	}
	for _, q := range classifyQueries(3, 2, 500) {
		want := core.Class(0)
		for _, name := range strings.Split(q.Name, " & ") {
			c, ok := class[name]
			if !ok {
				t.Fatalf("%q: unknown catalog entry %q", q.Text, name)
			}
			if want == 0 {
				want = c
			} else {
				want = join(want, c)
			}
		}
		if q.Bound != want {
			t.Errorf("%q: bound %v, catalog join %v", q.Text, q.Bound, want)
		}
		f, err := ltl.Parse(q.Text)
		if err != nil || f.String() != q.Text {
			t.Errorf("%q does not round-trip through the parser (%v)", q.Text, err)
		}
	}
}

func TestScenarioTablesAreUsable(t *testing.T) {
	for _, s := range scenarios(false) {
		var yes, no int
		for _, spec := range s.specs {
			if _, err := ltl.Parse(spec.Formula); err != nil {
				t.Errorf("%s: %q: %v", s.name, spec.Formula, err)
			}
			if spec.Holds {
				yes++
			} else {
				no++
			}
		}
		if yes == 0 || no == 0 {
			t.Errorf("%s: known answers are all %v; a constant verdict would pass", s.name, yes > 0)
		}
	}
}

// TestContainsAnswersHoldOnLassos checks every spec-contains answer
// known by construction with the lasso evaluator, independently of the
// engine: a "fails" case has a separating lasso, and sampled lassos never
// separate a "holds" case.
func TestContainsAnswersHoldOnLassos(t *testing.T) {
	cases := containsCases(5, false)
	for i := range cases {
		c := &cases[i]
		var inL, inR func(word.Lasso) bool
		var alpha *alphabet.Alphabet
		var witness word.Lasso
		if c.counter != nil {
			a, b := c.counter()
			inL, inR = a.AcceptsOrFalse, b.AcceptsOrFalse
			alpha = a.Alphabet()
			var n1 int
			if _, err := fmt.Sscanf(c.Name, "NestedCounters(%d,", &n1); err == nil {
				witness = word.MustLassoStrings(strings.Repeat("a", n1), "b")
			} else {
				witness = word.MustLassoStrings("a", "b")
			}
		} else {
			lf, rf := ltl.MustParse(c.Left), ltl.MustParse(c.Right)
			inL = func(w word.Lasso) bool { ok, err := eval.Holds(lf, w); return err == nil && ok }
			inR = func(w word.Lasso) bool { ok, err := eval.Holds(rf, w); return err == nil && ok }
			var err error
			if alpha, err = alphabet.Valuations(c.Props); err != nil {
				t.Fatal(err)
			}
			witness = word.MustLasso(nil, word.Finite{alpha.Symbol(0)}) // nothing ever true
		}
		separates := func(w word.Lasso) bool {
			if c.Kind == engine.CheckEquivalent {
				return inL(w) != inR(w)
			}
			return inR(w) && !inL(w)
		}
		switch c.Want {
		case fails:
			if !separates(witness) {
				t.Errorf("%s: the constructed witness %v does not separate", c, witness)
			}
		case holds:
			rng := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < 200; j++ {
				if w := gen.RandomLasso(rng, alpha, 4, 4); separates(w) {
					t.Errorf("%s: lasso %v separates a case known to hold", c, w)
					break
				}
			}
		}
	}
}

// TestBenchmarkJSONListsTheReportedMetrics keeps BENCHMARK.json and the
// runner's metric tables in step.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), "spec-classify mc-scenarios spec-contains daemon-mixed"; got != want {
		t.Errorf("workloads %q, runner runs %q", got, want)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the runner %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if spec.EndToEnd[i].Name != m.name || spec.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, runner reports %s %s", i, spec.EndToEnd[i], m.name, m.unit)
		}
	}
	for i, m := range perLayer {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, runner reports %s %s", i, spec.PerLayer[i], m.name, m.unit)
		}
	}
}

// buildBinaries builds the runner and temporald into dir.
func buildBinaries(t *testing.T, dir string) (perfbench, temporald string) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	perfbench, temporald = filepath.Join(dir, "perfbench"), filepath.Join(dir, "temporald")
	for _, b := range []struct{ out, pkg, cwd string }{
		{perfbench, ".", "."},
		{temporald, "./cmd/temporald", ".."},
	} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = b.cwd
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b.pkg, err, out)
		}
	}
	return perfbench, temporald
}

// TestSmokeEveryWorkload runs each workload once on tiny inputs, traced
// and untraced, and checks the result line's shape.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and starts daemons")
	}
	dir := t.TempDir()
	bench, daemon := buildBinaries(t, dir)
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(bench, "-workload", w, "-seed", "7", "-seconds", "1", "-trace", trace,
				"-smoke", "-temporald", daemon, "-workdir", dir)
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w, trace, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w, trace, res.Correct, res.Attempted, res.Failed, out)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%s: metric %s missing or wrong unit (%+v)", w, trace, m.name, got)
				}
			}
			if trace == "0" {
				for _, m := range []string{"setup_s", "ops_per_s", "p50_ms", "p99_ms", "ok_frac", "peak_rss_mb"} {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w, m, res.Metrics[m].Value)
					}
				}
			}
			if !bytes.Contains(out, []byte(`"nproc"`)) || !bytes.Contains(out, []byte(`"go_version"`)) {
				t.Errorf("%s trace=%s: report lacks host facts", w, trace)
			}
		}
	}
}

// TestRunFailsWithoutTheSources runs run.py in a directory holding only
// BENCHMARK.json and the benchmark: it must fail without a result line.
func TestRunFailsWithoutTheSources(t *testing.T) {
	if _, err := exec.LookPath("python3"); err != nil {
		t.Skip("python3 not on PATH")
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"../BENCHMARK.json", "run.py", "go.mod", "main.go"} {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, "perfbench", filepath.Base(f))
		if f == "../BENCHMARK.json" {
			dst = filepath.Join(dir, "BENCHMARK.json")
		}
		if err := os.WriteFile(dst, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("python3", "perfbench/run.py", "--workload", "spec-classify", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("run.py succeeded without sources:\n%s", out)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"metrics"`) {
			t.Errorf("run.py printed a result without sources: %s", sc.Text())
		}
	}
}
