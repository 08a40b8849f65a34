package omega_test

// Schedule-independence suite for the sharded parallel exploration: the
// same queries run at jobs ∈ {1, 2, 8} and under seeded schedule
// perturbation (randomized chunk hand-out, worker delays) must produce
// bit-identical verdicts, witness lassos, interned state sequences and
// states-materialized counts. The sharding thresholds are shrunk via
// par.WithShardThresholds so the differential corpus's small products
// actually take the sharded path; the stress tests use full-size products
// at the production thresholds.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/budget"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/omega"
	"repro/internal/par"
)

var cntLazyStatesRead = obs.NewCounter("omega.lazy.states_materialized")

// jobsCtx builds the context for one swept schedule: a parallelism bound
// plus, when seed is non-zero, the seeded perturbation mode.
func jobsCtx(jobs int, seed int64) context.Context {
	ctx := par.WithJobs(context.Background(), jobs)
	if seed != 0 {
		ctx = par.WithPerturb(ctx, seed)
	}
	return ctx
}

// smallWavesCtx is jobsCtx with the sharding thresholds shrunk so every
// wave of two or more states is sharded.
func smallWavesCtx(jobs int, seed int64) context.Context {
	return par.WithShardThresholds(jobsCtx(jobs, seed), 2, 1)
}

// TestContainsScheduleIndependence sweeps the differential corpus's
// random containment queries across worker counts and perturbed
// schedules, asserting bit-identical verdicts, witnesses and
// states-materialized deltas against the sequential oracle.
func TestContainsScheduleIndependence(t *testing.T) {
	waves := obs.NewCounter("omega.parallel.waves")
	wavesBefore := waves.Value()
	defer func() {
		// Guard against the sweep silently taking the sequential path:
		// with the shrunk thresholds, sharded waves must have run.
		if waves.Value() == wavesBefore {
			t.Error("sweep never engaged the sharded wave path")
		}
	}()
	rng := rand.New(rand.NewSource(20260808))
	pairs := diffPairs(t) / 2
	for i := 0; i < pairs; i++ {
		a, b := randomPair(rng)
		seqBefore := cntLazyStatesRead.Value()
		seqOK, seqW, err := a.ContainsCtx(smallWavesCtx(1, 0), b)
		if err != nil {
			t.Fatalf("pair %d sequential: %v", i, err)
		}
		seqStates := cntLazyStatesRead.Value() - seqBefore
		for _, sched := range []struct {
			jobs int
			seed int64
		}{{2, 0}, {8, 0}, {2, int64(i) + 1}, {8, int64(i) + 101}} {
			before := cntLazyStatesRead.Value()
			ok, w, err := a.ContainsCtx(smallWavesCtx(sched.jobs, sched.seed), b)
			if err != nil {
				t.Fatalf("pair %d jobs=%d seed=%d: %v", i, sched.jobs, sched.seed, err)
			}
			if ok != seqOK {
				t.Fatalf("pair %d jobs=%d seed=%d: verdict %v != sequential %v",
					i, sched.jobs, sched.seed, ok, seqOK)
			}
			if !reflect.DeepEqual(w, seqW) {
				t.Fatalf("pair %d jobs=%d seed=%d: witness %v != sequential %v",
					i, sched.jobs, sched.seed, w, seqW)
			}
			if d := cntLazyStatesRead.Value() - before; d != seqStates {
				t.Fatalf("pair %d jobs=%d seed=%d: materialized %d states, sequential %d",
					i, sched.jobs, sched.seed, d, seqStates)
			}
		}
	}
}

// TestExplorerScheduleIndependence drives ProductExplorer to the fixpoint
// under every swept schedule and asserts the interned state sequence —
// the substrate every verdict, witness and cached StructuralKey is built
// from — is bit-identical to the sequential run's.
func TestExplorerScheduleIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	explore := func(jobs int, seed int64, autos ...*omega.Automaton) *omega.ProductExplorer {
		t.Helper()
		e, err := omega.NewProductExplorer(autos...)
		if err != nil {
			t.Fatal(err)
		}
		for {
			done, err := e.ExploreCtx(smallWavesCtx(jobs, seed), e.Discovered())
			if err != nil {
				t.Fatal(err)
			}
			if done {
				return e
			}
		}
	}
	for i := 0; i < 40; i++ {
		a := gen.RandomStreett(rng, ab, 3+rng.Intn(4), 1+rng.Intn(2), 0.4, 0.4)
		b := gen.RandomStreett(rng, ab, 3+rng.Intn(4), 1+rng.Intn(2), 0.4, 0.4)
		c := gen.RandomStreett(rng, ab, 2+rng.Intn(3), 1, 0.4, 0.4)
		seq := explore(1, 0, a, b, c)
		for _, sched := range []struct {
			jobs int
			seed int64
		}{{2, 0}, {8, 0}, {8, int64(i) + 1}} {
			par := explore(sched.jobs, sched.seed, a, b, c)
			if par.Discovered() != seq.Discovered() || par.Materialized() != seq.Materialized() {
				t.Fatalf("iter %d jobs=%d: %d/%d states vs sequential %d/%d", i, sched.jobs,
					par.Materialized(), par.Discovered(), seq.Materialized(), seq.Discovered())
			}
			for s := 0; s < seq.Discovered(); s++ {
				if !reflect.DeepEqual(par.StateTuple(s), seq.StateTuple(s)) {
					t.Fatalf("iter %d jobs=%d: state %d interned as %v, sequential %v",
						i, sched.jobs, s, par.StateTuple(s), seq.StateTuple(s))
				}
			}
		}
	}
}

// TestIntersectWitnessScheduleIndependence sweeps the multi-factor lazy
// intersection witness over worker counts.
func TestIntersectWitnessScheduleIndependence(t *testing.T) {
	fams := [][]*omega.Automaton{
		gen.EarlyWitnessIntersection(ab, 2, 3, 5),
		gen.EmptyIntersectionFamily(ab, 4, 3),
	}
	for fi, autos := range fams {
		seqW, seqOK, err := omega.IntersectWitnessCtx(smallWavesCtx(1, 0), autos...)
		if err != nil {
			t.Fatal(err)
		}
		for _, jobs := range []int{2, 8} {
			w, ok, err := omega.IntersectWitnessCtx(smallWavesCtx(jobs, int64(fi)+1), autos...)
			if err != nil {
				t.Fatal(err)
			}
			if ok != seqOK || !reflect.DeepEqual(w, seqW) {
				t.Fatalf("family %d jobs=%d: (%v, %v) != sequential (%v, %v)", fi, jobs, ok, w, seqOK, seqW)
			}
		}
	}
}

// TestParallelFaultParity injects an error at the lazy site mid-product
// and asserts the sharded path degrades identically to the sequential
// one: same surfaced error, same states-materialized count (the Nth-hit
// semantics are preserved by the sequential governance prefix).
func TestParallelFaultParity(t *testing.T) {
	defer fault.Reset()
	// Production thresholds: the fault must land mid-wave in a genuinely
	// sharded exploration, so use a product with thousands of states.
	a, b := gen.NestedCounters(ab, 41, 43)
	boom := errors.New("injected shard fault")
	run := func(jobs int) (error, int64) {
		cleanup := fault.InjectError(fault.SiteOmegaLazy, 1000, boom)
		defer cleanup()
		before := cntLazyStatesRead.Value()
		_, _, err := a.ContainsCtx(jobsCtx(jobs, 0), b)
		return err, cntLazyStatesRead.Value() - before
	}
	seqErr, seqStates := run(1)
	if !errors.Is(seqErr, boom) {
		t.Fatalf("sequential run should surface the injection, got %v", seqErr)
	}
	for _, jobs := range []int{2, 8} {
		err, states := run(jobs)
		if !errors.Is(err, boom) {
			t.Fatalf("jobs=%d: want injected fault, got %v", jobs, err)
		}
		if states != seqStates {
			t.Fatalf("jobs=%d: materialized %d states before fault, sequential %d", jobs, states, seqStates)
		}
	}
}

// TestParallelBudgetParity exhausts a state budget mid-product and
// asserts the sharded path charges exactly what the sequential path does
// before stopping.
func TestParallelBudgetParity(t *testing.T) {
	a, b := gen.NestedCounters(ab, 41, 43)
	run := func(jobs int) (error, int64) {
		bud := budget.New(700, 0)
		ctx := budget.With(jobsCtx(jobs, 0), bud)
		_, _, err := a.ContainsCtx(ctx, b)
		return err, bud.States()
	}
	seqErr, seqSpend := run(1)
	if !errors.Is(seqErr, budget.ErrBudgetExceeded) {
		t.Fatalf("sequential run should exhaust the budget, got %v", seqErr)
	}
	for _, jobs := range []int{2, 8} {
		err, spend := run(jobs)
		if !errors.Is(err, budget.ErrBudgetExceeded) {
			t.Fatalf("jobs=%d: want budget exhaustion, got %v", jobs, err)
		}
		if spend != seqSpend {
			t.Fatalf("jobs=%d: charged %d states, sequential %d", jobs, spend, seqSpend)
		}
	}
}

// TestParallelCancellationMidWave cancels a sharded exploration while its
// waves are in flight; the call must return promptly with the context
// error and never panic or deadlock (the -race run also makes this a
// worker/barrier teardown stress).
func TestParallelCancellationMidWave(t *testing.T) {
	a, b := gen.NestedCounters(ab, 41, 43)
	ctx, cancel := context.WithCancel(jobsCtx(8, 7))
	e, err := omega.NewProductExplorer(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExploreCtx(ctx, 600); err != nil {
		t.Fatalf("pre-cancel exploration: %v", err)
	}
	cancel()
	done, err := e.ExploreCtx(ctx, 1<<20)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel exploration: done=%v err=%v, want context.Canceled", done, err)
	}
}

// TestParallelRaceStress hammers one shared automaton pair — shared
// kernels, CAS-published analyses, structural keys — with concurrent
// sharded queries under perturbed schedules. Run under -race by
// check.sh; every query must agree with the sequential verdict.
func TestParallelRaceStress(t *testing.T) {
	a, b := gen.NestedCounters(ab, 23, 29)
	seqOK, seqW, err := a.ContainsCtx(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ok, w, err := a.ContainsCtx(jobsCtx(4, int64(g)+1), b)
			if err != nil {
				errs[g] = err
				return
			}
			if ok != seqOK || !reflect.DeepEqual(w, seqW) {
				errs[g] = errors.New("verdict diverged from sequential run")
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
