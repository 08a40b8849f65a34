package ts

import "testing"

// TestBuildAllocs bounds the allocations of building RingMutex(6,
// strong). Generated states store no names and no per-state maps — a bit
// row each, in one block — so the count tracks the successor relation's
// growth, not the number of states. The bound sits about 20% above the
// measured 368 (380 under -race); the map- and name-per-state layout it
// replaced made 4047.
func TestBuildAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RingMutex(6, Strong); err != nil {
			t.Fatal(err)
		}
	})
	if bound := 440.0; allocs > bound {
		t.Errorf("%.0f allocs per build, want ≤ %.0f", allocs, bound)
	}
}
