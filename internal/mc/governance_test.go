package mc_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/ts"
)

// TestVerifyCompilesPropertyUnderGovernance: the negated property is
// compiled inside the verification request, so an exhausted budget or a
// canceled context stops the compile with the governance error itself —
// not with the "cannot compile ¬f nor f" diagnostic of the fallback.
func TestVerifyCompilesPropertyUnderGovernance(t *testing.T) {
	sys, err := ts.TrivialMutex()
	if err != nil {
		t.Fatal(err)
	}
	f := ltl.MustParse("G (w1 -> F c1)")
	starved := budget.With(context.Background(), budget.New(1, 0))
	if _, err := mc.VerifyCtx(starved, sys, f); !errors.Is(err, budget.ErrBudgetExceeded) || strings.Contains(err.Error(), "cannot compile") {
		t.Fatalf("starved budget: want the budget error from the property compile, got %v", err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mc.VerifyCtx(canceled, sys, f); !errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "cannot compile") {
		t.Fatalf("canceled context: want the cancellation from the property compile, got %v", err)
	}
}
