package temporal_test

// BenchmarkScenarioBuild and BenchmarkVerifyInvariant time the two layers
// under the mc-scenarios workload that are not the fair-product search:
// building a protocol family's reachable System, and the planner's safety
// tier (mc.InvariantCtx), which walks that System's successor rows and
// evaluates a state formula at every reachable state.

import (
	"context"
	"testing"

	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/ts"
)

func BenchmarkScenarioBuild(b *testing.B) {
	for _, tc := range []struct {
		name  string
		build func() (*ts.System, error)
	}{
		{"ring8", func() (*ts.System, error) { return ts.RingMutex(8, ts.Strong) }},
		{"coherence5", func() (*ts.System, error) { return ts.CacheCoherence(5) }},
		{"leader6", func() (*ts.System, error) { return ts.LeaderElection(6) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVerifyInvariant(b *testing.B) {
	ring, err := ts.RingMutex(8, ts.Strong)
	if err != nil {
		b.Fatal(err)
	}
	coherence, err := ts.CacheCoherence(5)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sys  *ts.System
		chi  string
	}{
		{"ring8", ring, "!(c0 & c1)"},
		{"coherence5", coherence, "!(m0 & m1)"},
	} {
		chi := ltl.MustParse(tc.chi)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ok, _, err := mc.InvariantCtx(context.Background(), tc.sys, chi)
				if err != nil || !ok {
					b.Fatalf("holds=%v err=%v", ok, err)
				}
			}
		})
	}
}
