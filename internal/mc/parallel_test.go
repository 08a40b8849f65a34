package mc_test

// Schedule-independence suite for the sharded product construction: every
// scenario-family verdict must be bit-identical — Holds, counterexample
// prefix and loop, lazy-product node count — whether the fair-acceptance
// search runs on one goroutine or shards its waves across many under a
// perturbed schedule.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/ts"
)

var cntLazyNodesRead = obs.NewCounter("mc.lazy.nodes_materialized")

func schedCtx(jobs int, seed int64) context.Context {
	ctx := par.WithJobs(context.Background(), jobs)
	if seed != 0 {
		ctx = par.WithPerturb(ctx, seed)
	}
	return ctx
}

// smallWavesCtx is schedCtx with the sharding thresholds shrunk so the
// scenario corpus's small products take the sharded path.
func smallWavesCtx(jobs int, seed int64) context.Context {
	return par.WithShardThresholds(schedCtx(jobs, seed), 2, 1)
}

// TestVerifyScheduleIndependence sweeps every scenario-family spec across
// worker counts and perturbed schedules and asserts the full Result —
// verdict, counterexample states, product size — matches the sequential
// oracle bit for bit.
func TestVerifyScheduleIndependence(t *testing.T) {
	waves := obs.NewCounter("mc.parallel.waves")
	wavesBefore := waves.Value()
	defer func() {
		// Guard against the sweep silently taking the sequential path:
		// with the shrunk thresholds, sharded waves must have run.
		if waves.Value() == wavesBefore {
			t.Error("sweep never engaged the sharded wave path")
		}
	}()
	for name, tc := range scenarioCases(t) {
		for _, spec := range tc.specs {
			f := ltl.MustParse(spec.Formula)
			seqBefore := cntLazyNodesRead.Value()
			seq, err := mc.VerifyCtx(smallWavesCtx(1, 0), tc.sys, f)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, spec.Formula, err)
			}
			seqNodes := cntLazyNodesRead.Value() - seqBefore
			for si, sched := range []struct {
				jobs int
				seed int64
			}{{2, 0}, {8, 0}, {2, 3}, {8, 11}} {
				before := cntLazyNodesRead.Value()
				res, err := mc.VerifyCtx(smallWavesCtx(sched.jobs, sched.seed), tc.sys, f)
				if err != nil {
					t.Fatalf("%s: %s jobs=%d: %v", name, spec.Formula, sched.jobs, err)
				}
				if res.Holds != seq.Holds {
					t.Fatalf("%s: %s jobs=%d seed=%d: verdict %v != sequential %v",
						name, spec.Formula, sched.jobs, sched.seed, res.Holds, seq.Holds)
				}
				if !reflect.DeepEqual(res.Counterexample, seq.Counterexample) {
					t.Fatalf("%s: %s jobs=%d seed=%d: counterexample %+v != sequential %+v",
						name, spec.Formula, sched.jobs, sched.seed, res.Counterexample, seq.Counterexample)
				}
				if d := cntLazyNodesRead.Value() - before; d != seqNodes {
					t.Fatalf("%s: %s sweep %d: %d product nodes, sequential %d",
						name, spec.Formula, si, d, seqNodes)
				}
			}
		}
	}
}

// TestVerifyParallelProductionThresholds runs a large scenario instance
// at the real sharding thresholds so the production wave path (not just
// the test-shrunk one) is exercised end to end.
func TestVerifyParallelProductionThresholds(t *testing.T) {
	if testing.Short() {
		t.Skip("large product; skipped in -short")
	}
	sys, err := ts.CacheCoherence(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range ts.CacheCoherenceSpecs(5) {
		f := ltl.MustParse(spec.Formula)
		seq, err := mc.VerifyCtx(schedCtx(1, 0), sys, f)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mc.VerifyCtx(schedCtx(8, 5), sys, f)
		if err != nil {
			t.Fatal(err)
		}
		if res.Holds != seq.Holds || !reflect.DeepEqual(res.Counterexample, seq.Counterexample) {
			t.Fatalf("%s: parallel result diverged from sequential", spec.Formula)
		}
	}
}

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
