package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ltl"
	"repro/internal/omega"
)

// classifyOne runs the daemon handler's sequence on one formula text:
// parse, compile, classify, plan. Each call is charged to its layer when
// tracing.
func classifyOne(ctx context.Context, eng *engine.Engine, tr *tracer, text string) (core.Classification, error) {
	var (
		f   ltl.Formula
		c   core.Classification
		err error
	)
	tr.do("ltl.parse", func() { f, err = ltl.Parse(text) })
	if err != nil {
		return c, err
	}
	var aut *omega.Automaton
	tr.do("engine.compile", func() { aut, err = eng.CompileFormula(ctx, f, nil) })
	if err != nil {
		return c, err
	}
	tr.do("engine.classify", func() { c, err = eng.ClassifyAutomaton(ctx, aut) })
	if err != nil {
		return c, err
	}
	tr.do("engine.plan", func() { _, _, err = eng.PlanAutomaton(ctx, aut) })
	return c, err
}

// runClassify is the spec-classify workload: a cold engine per pass,
// each pass over its own seeded list of catalog-pattern formulas and
// their conjunctions. Fresh formulas per pass make every pass an
// independent sample, so the median pass throughput does not hinge on
// the few costliest formulas of one list.
func runClassify(r *report) error {
	n := r.opts.size(classifyPassSize, 40)
	if err := r.measureProcessSetup(); err != nil {
		return err
	}
	// A traced run gives each list an untraced and then a traced pass, so
	// the tracing overhead compares the same inputs.
	list := func(pass int) int {
		if r.opts.trace {
			return pass / 2
		}
		return pass
	}
	ctx := context.Background()
	next := classifyQueries(r.opts.seed, 0, n)
	return r.runPasses(func(tr *tracer, pass int) {
		qs := next
		var eng *engine.Engine
		tr.do("engine.new", func() { eng = engine.New() })
		for _, q := range qs {
			start := time.Now()
			c, err := classifyOne(ctx, eng, tr, q.Text)
			r.record(time.Since(start), tr != nil)
			r.judge(q.Text, err, c.In(q.Bound),
				fmt.Sprintf("classified %v, not within the catalog join %v of %s", c.Lowest(), q.Bound, q.Name))
		}
		if list(pass+1) != list(pass) {
			r.pause(func() { next = classifyQueries(r.opts.seed, list(pass+1), n) })
		}
	})
}

// classifyPassSize is the number of formulas per spec-classify pass.
const classifyPassSize = 500
