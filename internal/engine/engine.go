// Package engine runs the classification and model-checking procedures
// on a bounded worker pool with a structural-hash memo cache. It is the
// execution layer between the public temporal API and internal/core: the
// independent per-class checks of a classification and the per-clause
// sub-automaton constructions of a formula compilation execute
// concurrently, and results are memoized under canonical keys (BFS
// structural encodings for automata, normalized renderings for formulas)
// so repeated and structurally identical work is answered from cache.
//
// All entry points take a context.Context and stop promptly when it is
// canceled, reporting ErrCanceled.
//
// The engine is also the pipeline's fault boundary. With WithStateBudget
// and WithStepBudget configured, every request runs under a budget
// carried in its context and aborts with budget.ErrBudgetExceeded when a
// construction blows up, instead of exhausting memory. Every entry point
// — and every pool-worker task — runs inside a recovery boundary that
// converts internal panics into a typed *InternalError carrying the
// operation name and stack, so one poisoned request can neither kill the
// process nor wedge the worker pool.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/omega"
	"repro/internal/plan"
	"repro/internal/store"
)

var (
	cntClassify = obs.NewCounter("engine.classify.calls")
	cntCompile  = obs.NewCounter("engine.compile.calls")
	cntBatch    = obs.NewCounter("engine.batch.calls")
)

// ErrCanceled is reported (via errors.Is) by every engine entry point
// when the operation stopped because its context was canceled or its
// deadline expired. The context's own error is wrapped alongside, so
// errors.Is(err, context.Canceled) keeps working too.
var ErrCanceled = errors.New("engine: operation canceled")

// DefaultCacheSize is the memo-cache entry bound used when no
// WithCacheSize option is given.
const DefaultCacheSize = 1024

// Observer receives engine events: "cache.hit", "cache.miss",
// "store.hit", "store.miss" (value 1 per lookup; the store events fire
// only with a persistent store configured) and "batch.unique" (number
// of deduplicated work items per Batch call). Observers must be safe
// for concurrent use; the engine may invoke them from worker
// goroutines.
type Observer func(event string, value int64)

// Engine is a concurrent, memoizing façade over the core procedures. The
// zero value is not usable; construct with New. An Engine is safe for
// concurrent use and is meant to be long-lived — the memo cache only
// pays off across calls.
type Engine struct {
	workers   int
	cacheSize int
	maxStates int64
	maxSteps  int64
	sem       chan struct{}
	cache     *memoCache
	observer  Observer

	// Persistent verdict tier (WithPersistentStore). store is nil when
	// unconfigured or the open failed; storeErr keeps the open failure
	// for StoreStats. The engine never fails a query on store trouble —
	// the store self-disables and the engine runs in-memory.
	storePath string
	store     *store.Store
	storeErr  error
}

// Option configures an Engine.
type Option func(*Engine)

// WithParallelism bounds the worker pool to n concurrent tasks; n < 1 is
// clamped to 1 (fully sequential). The default is runtime.GOMAXPROCS(0).
func WithParallelism(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithCacheSize bounds the memo cache to n entries; n <= 0 disables
// caching entirely. The default is DefaultCacheSize.
func WithCacheSize(n int) Option {
	return func(e *Engine) { e.cacheSize = n }
}

// WithObserver registers a sink for engine events.
func WithObserver(o Observer) Option {
	return func(e *Engine) { e.observer = o }
}

// New builds an Engine with the given options.
func New(opts ...Option) *Engine {
	e := &Engine{workers: runtime.GOMAXPROCS(0), cacheSize: DefaultCacheSize}
	for _, o := range opts {
		o(e)
	}
	if e.workers < 1 {
		e.workers = 1
	}
	e.sem = make(chan struct{}, e.workers)
	e.cache = newMemoCache(e.cacheSize)
	e.openStore()
	return e
}

// CacheStats returns a snapshot of this engine's memo-cache traffic.
func (e *Engine) CacheStats() CacheStats { return e.cache.stats() }

// wrapErr maps context errors to ErrCanceled (wrapping the original so
// errors.Is matches both) and passes everything else — including
// budget.ErrBudgetExceeded and *InternalError — through. Idempotent, so
// the cores and the request envelope can each apply it safely.
func wrapErr(err error) error {
	if err == nil || errors.Is(err, ErrCanceled) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

func (e *Engine) observe(event string, v int64) {
	if e.observer != nil {
		e.observer(event, v)
	}
}

func (e *Engine) cacheGet(key string) (any, bool) {
	v, ok := e.cache.get(key)
	if ok {
		e.observe("cache.hit", 1)
	} else {
		e.observe("cache.miss", 1)
	}
	return v, ok
}

func (e *Engine) cachePut(key string, v any) { e.cache.put(key, v) }

// fanOut runs the tasks on the worker pool, returning the first error.
// Pool tokens are acquired non-blockingly: when the pool is saturated a
// task runs inline on the caller's goroutine, so nested fan-outs (Batch
// items fanning out their per-class checks) can never deadlock — every
// task always has somewhere to run. Every task — spawned or inline —
// runs inside a recovery boundary: a panicking task reports an
// *InternalError instead of killing the worker goroutine (and with it
// the process).
func (e *Engine) fanOut(ctx context.Context, tasks ...func() error) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	record := func(err error) {
		if err == nil {
			return
		}
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	run := func(t func() error) error {
		return capture("task", func() error {
			if err := fault.Hit(fault.SiteEngineTask); err != nil {
				return err
			}
			return t()
		})
	}
	for _, t := range tasks {
		select {
		case e.sem <- struct{}{}:
			wg.Add(1)
			go func(t func() error) {
				defer wg.Done()
				defer func() { <-e.sem }()
				record(run(t))
			}(t)
		default:
			record(run(t))
		}
	}
	wg.Wait()
	return firstErr
}

// ClassifyAutomaton classifies the property specified by a deterministic
// Streett automaton, running the four independent per-class checks of
// §5.1 and the reactivity rank concurrently on the worker pool. The
// result is memoized under the automaton's structural key, so automata
// with the same reachable structure (not just the same pointer) share
// one classification.
//
// The call runs under the engine's request envelope (see serve).
func (e *Engine) ClassifyAutomaton(ctx context.Context, a *omega.Automaton) (core.Classification, error) {
	return serve(e, ctx, "ClassifyAutomaton", func(ctx context.Context) (core.Classification, error) {
		return e.classifyAutomaton(ctx, a)
	})
}

func (e *Engine) classifyAutomaton(ctx context.Context, a *omega.Automaton) (core.Classification, error) {
	if err := ctx.Err(); err != nil {
		return core.Classification{}, wrapErr(err)
	}
	cntClassify.Inc()
	// Same stage name as the sequential core path: the obs stage taxonomy
	// stays stable whichever execution layer ran the classification.
	ctx, sp := obs.Start(ctx, "classify.automaton")
	sp.Int("states", a.NumStates()).Int("pairs", a.NumPairs())
	defer sp.End()
	key := "classify|" + a.StructuralKey()
	if v, ok := e.cacheGet(key); ok {
		sp.Bool("cached", true)
		return v.(core.Classification), nil
	}
	if c, ok := e.storeGetClass(key); ok {
		// Disk-warm hit: promote into the memo tier so the rest of the
		// process is answered from memory.
		sp.Bool("stored", true)
		e.cachePut(key, c)
		return c, nil
	}
	an := core.Analyze(a)
	var (
		safety, guarantee       bool
		recurrence, persistence bool
		reactivityRank          int
	)
	err := e.fanOut(ctx,
		func() (err error) { safety, err = an.Safety(ctx); return },
		func() (err error) { guarantee, err = an.Guarantee(ctx); return },
		func() (err error) { recurrence, err = an.Recurrence(ctx); return },
		func() (err error) { persistence, err = an.Persistence(ctx); return },
		func() (err error) { reactivityRank, err = an.ReactivityRank(ctx); return },
	)
	if err != nil {
		return core.Classification{}, wrapErr(err)
	}
	c := core.Resolve(safety, guarantee, recurrence, persistence)
	c.ReactivityRank = reactivityRank
	if c.Obligation {
		if c.ObligationRank, err = an.ObligationRank(ctx); err != nil {
			return core.Classification{}, wrapErr(err)
		}
	}
	// Terminal verdict: memoize and persist. Faulted or budget-aborted
	// classifications returned above on the error path, so — exactly as
	// for the memo cache — they can never reach the disk tier.
	e.cachePut(key, c)
	e.storePutClass(key, c)
	return c, nil
}

// resolveProps mirrors core.CompileFormulaCtx's proposition defaulting:
// nil means the formula's own propositions, and degenerate formulas with
// no propositions still need a one-proposition alphabet.
func resolveProps(f ltl.Formula, props []string) []string {
	if props == nil {
		props = ltl.Props(f)
	}
	if len(props) == 0 {
		props = []string{"p"}
	}
	return props
}

// CompileFormula builds the deterministic Streett automaton of the
// formula over the valuation alphabet 2^props (Prop. 5.3). The clause
// automata of the normal form compile concurrently, and both the whole
// formula and each clause are memoized — batch items that share clauses
// (a common fairness conjunct, say) compile the shared sub-automaton
// once.
//
// The call runs under the engine's request envelope (see serve).
func (e *Engine) CompileFormula(ctx context.Context, f ltl.Formula, props []string) (*omega.Automaton, error) {
	return serve(e, ctx, "CompileFormula", func(ctx context.Context) (*omega.Automaton, error) {
		return e.compileFormula(ctx, f, props)
	})
}

func (e *Engine) compileFormula(ctx context.Context, f ltl.Formula, props []string) (*omega.Automaton, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapErr(err)
	}
	cntCompile.Inc()
	props = resolveProps(f, props)
	propsKey := strings.Join(props, "\x1f")
	ctx, sp := obs.Start(ctx, "compile.formula")
	sp.Stringer("formula", f)
	defer sp.End()
	key := "compile|" + propsKey + "|" + f.String()
	if v, ok := e.cacheGet(key); ok {
		sp.Bool("cached", true)
		return v.(*omega.Automaton), nil
	}
	alpha, err := alphabet.Valuations(props)
	if err != nil {
		return nil, err
	}
	nf, err := core.Normalize(ctx, f)
	if err != nil {
		return nil, err
	}
	autos := make([]*omega.Automaton, len(nf.Clauses))
	tasks := make([]func() error, len(nf.Clauses))
	for i, c := range nf.Clauses {
		i, c := i, c
		tasks[i] = func() error {
			ck := "clause|" + propsKey + "|" + c.Formula().String()
			if v, ok := e.cacheGet(ck); ok {
				autos[i] = v.(*omega.Automaton)
				return nil
			}
			a, err := core.CompileClauseOver(ctx, c, alpha)
			if err != nil {
				return err
			}
			e.cachePut(ck, a)
			autos[i] = a
			return nil
		}
	}
	if err := e.fanOut(ctx, tasks...); err != nil {
		return nil, wrapErr(err)
	}
	var res *omega.Automaton
	if len(autos) == 0 {
		// No clauses: the formula reduced to true.
		res = omega.Universal(alpha)
	} else {
		prod, err := omega.IntersectAllCtx(ctx, autos...)
		if err != nil {
			return nil, err
		}
		res = prod.Reduce(ctx)
	}
	sp.Int("states", res.NumStates())
	e.cachePut(key, res)
	return res, nil
}

// ClassifyFormula compiles the formula and classifies the resulting
// automaton in one request: both steps hit the memo cache and draw from
// one shared per-request budget.
func (e *Engine) ClassifyFormula(ctx context.Context, f ltl.Formula, props []string) (core.Classification, error) {
	return serve(e, ctx, "ClassifyFormula", func(ctx context.Context) (core.Classification, error) {
		a, err := e.compileFormula(ctx, f, props)
		if err != nil {
			return core.Classification{}, err
		}
		return e.classifyAutomaton(ctx, a)
	})
}

// verdictSource says which tier answered a planned query: computed
// fresh, served from the in-memory memo cache, or served disk-warm from
// the persistent store. Check surfaces it as Verdict.Cached/Stored.
type verdictSource int

const (
	srcComputed verdictSource = iota
	srcMemo
	srcStore
)

// contains is the planned-containment core behind Check's containment
// and equivalence kinds. Verdicts are memoized with their provenance, so
// a cache hit still reports which tier originally answered; fallback
// outcomes are never cached or persisted — the failure that forced the
// fallback may have been injected or transient, and caching would both
// hide the fast path forever and freeze a verdict whose provenance says
// "something went wrong".
func (e *Engine) contains(ctx context.Context, a, b *omega.Automaton) (plan.Outcome, verdictSource, error) {
	if err := ctx.Err(); err != nil {
		return plan.Outcome{}, srcComputed, wrapErr(err)
	}
	key := "contains|" + a.StructuralKey() + "|" + b.StructuralKey()
	if v, ok := e.cacheGet(key); ok {
		return v.(plan.Outcome), srcMemo, nil
	}
	if out, ok := e.storeGetOutcome(key); ok {
		e.cachePut(key, out)
		return out, srcStore, nil
	}
	pa, err := e.probeAutomaton(ctx, a)
	if err != nil {
		return plan.Outcome{}, srcComputed, err
	}
	pb, err := e.probeAutomaton(ctx, b)
	if err != nil {
		return plan.Outcome{}, srcComputed, err
	}
	out, err := plan.ContainsWith(ctx, plan.DecideContains(pa, pb), a, b)
	if err != nil {
		return plan.Outcome{}, srcComputed, wrapErr(err)
	}
	if !out.Fallback {
		e.cachePut(key, out)
		e.storePutOutcome(key, out)
	}
	return out, srcComputed, nil
}

// Request is one Batch work item: exactly one of Formula or Automaton
// must be set. Props qualifies a Formula request as in CompileFormula.
type Request struct {
	Formula   ltl.Formula
	Props     []string
	Automaton *omega.Automaton
}

// Result is the outcome of one Batch item, positionally matching the
// request slice. Automaton is the classified automaton (the compiled one
// for formula requests).
type Result struct {
	Classification core.Classification
	Automaton      *omega.Automaton
	Err            error
}

// requestKey validates a request and returns its dedup key.
func requestKey(r Request) (string, error) {
	switch {
	case r.Formula != nil && r.Automaton != nil:
		return "", errors.New("engine: batch request sets both Formula and Automaton")
	case r.Formula != nil:
		props := resolveProps(r.Formula, r.Props)
		return "f|" + strings.Join(props, "\x1f") + "|" + r.Formula.String(), nil
	case r.Automaton != nil:
		return "a|" + r.Automaton.StructuralKey(), nil
	default:
		return "", errors.New("engine: empty batch request (need Formula or Automaton)")
	}
}

// Batch classifies many formulas and automata at once. Structurally
// identical requests are deduplicated up front — each distinct property
// is classified exactly once and its result fanned back to every
// requesting position — and distinct items run concurrently on the
// worker pool. Item errors are reported per position, never as a panic;
// when the context is canceled, remaining items report ErrCanceled.
//
// Batch degrades gracefully under faults: each item runs under its own
// budget (when caps are configured) and its own recovery boundary, so an
// item that panics reports an *InternalError at its position while the
// rest of the batch completes normally.
//
// A traced batch is one trace: its "engine.batch" root carries one trace
// id, and each item's "engine.request" envelope nests under it.
func (e *Engine) Batch(ctx context.Context, reqs []Request) []Result {
	cntBatch.Inc()
	ctx, _ = traced(ctx)
	ctx, sp := obs.Start(ctx, "engine.batch")
	sp.Int("items", len(reqs))
	defer sp.End()
	results := make([]Result, len(reqs))

	type group struct {
		rep     Request
		indices []int
	}
	groups := make(map[string]*group, len(reqs))
	var order []string
	for i, r := range reqs {
		key, err := requestKey(r)
		if err != nil {
			results[i] = Result{Err: err}
			continue
		}
		g, ok := groups[key]
		if !ok {
			g = &group{rep: r}
			groups[key] = g
			order = append(order, key)
		}
		g.indices = append(g.indices, i)
	}
	sp.Int("unique", len(order))
	e.observe("batch.unique", int64(len(order)))

	var wg sync.WaitGroup
	for _, key := range order {
		g := groups[key]
		select {
		case <-ctx.Done():
			err := wrapErr(ctx.Err())
			for _, i := range g.indices {
				results[i] = Result{Err: err}
			}
			continue
		case e.sem <- struct{}{}:
		}
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			defer func() { <-e.sem }()
			res := e.runRequest(ctx, g.rep)
			for _, i := range g.indices {
				results[i] = res
			}
		}(g)
	}
	wg.Wait()
	return results
}

// runRequest executes one deduplicated Batch item as its own request:
// the envelope gives the item its own budget — shared by the compile and
// classify stages — its own "engine.request" span under the batch's, and
// its own recovery boundary, so an injected or real panic poisons only
// this item.
func (e *Engine) runRequest(ctx context.Context, r Request) Result {
	res, err := serve(e, ctx, "Batch.item", func(ctx context.Context) (Result, error) {
		if err := fault.Hit(fault.SiteEngineBatch); err != nil {
			return Result{}, err
		}
		return e.runItem(ctx, r)
	})
	if err != nil {
		return Result{Err: err}
	}
	return res
}

func (e *Engine) runItem(ctx context.Context, r Request) (Result, error) {
	a := r.Automaton
	if a == nil {
		var err error
		if a, err = e.compileFormula(ctx, r.Formula, r.Props); err != nil {
			return Result{}, err
		}
	}
	c, err := e.classifyAutomaton(ctx, a)
	if err != nil {
		return Result{}, err
	}
	return Result{Classification: c, Automaton: a}, nil
}
