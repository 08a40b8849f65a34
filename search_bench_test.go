package temporal_test

// BenchmarkSearch* measures the lazy state-space search on its two
// products: the omega containment product of the large-product
// conjoined-fairness family, and mc.VerifyCtx on the internal/ts protocol
// scenarios. Every iteration's verdict is asserted equal to a reference
// computed once per benchmark, so a timing can never come from a wrong
// answer.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/omega"
	"repro/internal/ts"
)

// bigFairnessContainment compiles the five-pair conjoined-fairness
// containment whose lazy product has 1024 states; the containment holds,
// so the search explores all of them.
func bigFairnessContainment(b *testing.B) (x, y *omega.Automaton) {
	b.Helper()
	props := []string{"p", "q", "r", "s", "u", "v", "w", "x", "y", "z"}
	eng := engine.New()
	x, err := eng.CompileFormula(context.Background(), ltl.MustParse(
		"(G F p -> G F q) & (G F r -> G F s) & (G F u -> G F v) & (G F w -> G F x) & (G F y -> G F z)"), props)
	if err != nil {
		b.Fatal(err)
	}
	y, err = eng.CompileFormula(context.Background(), ltl.MustParse(
		"G F q & G F s & G F v & G F x & G F z"), props)
	if err != nil {
		b.Fatal(err)
	}
	return x, y
}

// BenchmarkSearchProduct is the full lazy containment over the 1024-state
// product.
func BenchmarkSearchProduct(b *testing.B) {
	x, y := bigFairnessContainment(b)
	ctx := context.Background()
	refOK, refW, err := x.ContainsCtx(ctx, y)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, w, err := x.ContainsCtx(ctx, y)
		if err != nil {
			b.Fatal(err)
		}
		if ok != refOK || !reflect.DeepEqual(w, refW) {
			b.Fatal("verdict diverged from the reference")
		}
	}
}

// BenchmarkSearchVerify model-checks the protocol scenarios, with the
// verdicts pinned to a reference run's.
func BenchmarkSearchVerify(b *testing.B) {
	coherence, err := ts.CacheCoherence(5)
	if err != nil {
		b.Fatal(err)
	}
	ring, err := ts.RingMutex(8, ts.Strong)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		sys     *ts.System
		formula string
	}{
		{"coherence5", coherence, "G (wr0 -> F m0)"},
		{"ring8", ring, "G (w0 -> F c0)"},
	} {
		f := ltl.MustParse(tc.formula)
		ref, err := mc.VerifyCtx(ctx, tc.sys, f)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := mc.VerifyCtx(ctx, tc.sys, f)
				if err != nil {
					b.Fatal(err)
				}
				if res.Holds != ref.Holds || !reflect.DeepEqual(res.Counterexample, ref.Counterexample) {
					b.Fatalf("%s: result diverged from the reference", tc.name)
				}
			}
		})
	}
}
