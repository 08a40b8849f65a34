package mc_test

import (
	"context"
	"testing"

	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/ts"
)

// TestVerifyAllocs bounds the allocations of one model-checking run,
// G F t0 on RingMutex(6, strong). The fair-SCC search keeps its per-round state in scratch it reuses across
// waves and refinement rounds, so the count tracks the product's size,
// not its number of rounds. The bound sits about 20% above the measured
// 433 (443 under -race); allocating per round and
// per state, the search made 10881.
func TestVerifyAllocs(t *testing.T) {
	obs.Detach() // a span sink would allocate per refinement round
	sys, err := ts.RingMutex(6, ts.Strong)
	if err != nil {
		t.Fatal(err)
	}
	f := ltl.MustParse("G F t0")
	const bound = 520
	allocs := testing.AllocsPerRun(5, func() {
		res, err := mc.VerifyCtx(context.Background(), sys, f)
		if err != nil || !res.Holds {
			t.Fatalf("holds=%v err=%v", res.Holds, err)
		}
	})
	if allocs > bound {
		t.Errorf("%.0f allocs per verify, want ≤ %d", allocs, bound)
	}
}
