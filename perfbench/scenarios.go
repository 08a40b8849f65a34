package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/ltl"
	"repro/internal/ts"
)

// scenario is one mc-scenarios system with its known-verdict specs.
type scenario struct {
	name  string
	build func() (*ts.System, error)
	specs []ts.ScenarioSpec
	parse []ltl.Formula // specs[i].Formula, parsed once
}

// scenarios returns the protocol families the workload model-checks.
// The smoke configuration keeps the smallest instance of each family.
func scenarios(smoke bool) []scenario {
	ring := func(n int) scenario {
		return scenario{fmt.Sprintf("RingMutex(%d,strong)", n),
			func() (*ts.System, error) { return ts.RingMutex(n, ts.Strong) }, ts.RingMutexSpecs(n, ts.Strong), nil}
	}
	leader := func(n int) scenario {
		return scenario{fmt.Sprintf("LeaderElection(%d)", n),
			func() (*ts.System, error) { return ts.LeaderElection(n) }, ts.LeaderElectionSpecs(n), nil}
	}
	coherence := func(n int) scenario {
		return scenario{fmt.Sprintf("CacheCoherence(%d)", n),
			func() (*ts.System, error) { return ts.CacheCoherence(n) }, ts.CacheCoherenceSpecs(n), nil}
	}
	if smoke {
		return []scenario{ring(4), leader(4), coherence(3)}
	}
	return []scenario{ring(6), ring(8), leader(5), leader(6), coherence(4), coherence(5)}
}

// scenarioOrder is the seeded order of one pass: which system first, and
// the order of its specs.
func scenarioOrder(seed int64, pass int, sc []scenario) (systems []int, specs [][]int) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(pass)))
	systems = rng.Perm(len(sc))
	specs = make([][]int, len(sc))
	for i, s := range sc {
		specs[i] = rng.Perm(len(s.specs))
	}
	return systems, specs
}

// runScenarios is the mc-scenarios workload: a cold engine per system,
// each system built and then checked against every spec of its family.
func runScenarios(r *report) error {
	sc := scenarios(r.opts.smoke)
	for i := range sc {
		for _, s := range sc[i].specs {
			f, err := ltl.Parse(s.Formula)
			if err != nil {
				return fmt.Errorf("%s spec %q: %w", sc[i].name, s.Formula, err)
			}
			sc[i].parse = append(sc[i].parse, f)
		}
	}
	if err := r.measureProcessSetup(); err != nil {
		return err
	}
	ctx := context.Background()
	err := r.runPasses(func(tr *tracer, pass int) {
		systems, specs := scenarioOrder(r.opts.seed, pass, sc)
		for _, si := range systems {
			s := sc[si]
			var eng *engine.Engine
			tr.do("engine.new", func() { eng = engine.New() })
			var sys *ts.System
			var err error
			tr.do("ts.build", func() { sys, err = s.build() })
			if err != nil {
				r.judge(s.name, err, false, "")
				continue
			}
			for _, k := range specs[si] {
				spec := s.specs[k]
				start := time.Now()
				v, err := eng.Check(ctx, engine.CheckRequest{Kind: engine.CheckVerify, System: sys, Formula: s.parse[k]})
				d := time.Since(start)
				r.record(d, tr != nil)
				tr.add("engine.verify."+v.Tier.String(), d)
				r.judge(s.name+" ⊨ "+spec.Formula, err, v.Holds == spec.Holds,
					fmt.Sprintf("verdict %v, known answer %v", v.Holds, spec.Holds))
			}
		}
	})
	if r.opts.trace {
		r.cpuCheck("mc.parallel.sharded", r.cnt[promKey("mc.parallel.shards")] > 0)
	}
	return err
}

// cpuCheck records a self-check that only means something with at least
// two CPUs to shard over; on a smaller host it is recorded as skipped.
func (r *report) cpuCheck(name string, ok bool) {
	switch {
	case r.opts.smoke:
		r.checks[name] = "skipped: smoke inputs are below the sharding threshold"
	case hostProcs < 2:
		r.checks[name] = fmt.Sprintf("skipped: GOMAXPROCS=%d < 2", hostProcs)
	case ok:
		r.checks[name] = "pass"
	default:
		r.checks[name] = "fail: no sharded wave ran"
	}
}
