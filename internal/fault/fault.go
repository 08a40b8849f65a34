// Package fault provides deterministic, test-only fault injection for the
// pipeline's hot constructions. Production code marks the interesting
// points with fault.Hit(site); tests arm a site with InjectError or
// InjectPanic to force a failure at exactly the Nth hit, which makes every
// error path — budget exhaustion mid-construction, cancellation between
// stages, a panic inside a pool worker — reproducible under `go test
// -race` without timing games.
//
// The package is built to be free when unused: Hit first reads one
// process-wide atomic.Bool and returns immediately while no site is
// armed, so the hooks can live inside state-materialization loops.
// Injection is global to the process and guarded by a mutex; tests that
// arm sites must not run in parallel with each other (use the returned
// cleanup or Reset, and keep such tests sequential as the package-level
// tests here do).
package fault

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Injection sites wired into the pipeline. The constants are the
// catalog; DESIGN.md §7 documents where each one sits.
const (
	SiteDFAProduct     = "dfa.product"        // per product state materialized
	SiteDFADeterminize = "dfa.determinize"    // per subset-construction state
	SiteDFAMinimize    = "dfa.minimize"       // per Hopcroft splitter pass
	SiteCompilePast    = "compile.past2dfa"   // per past-formula DFA state
	SiteOmegaProduct   = "omega.product"      // per ω-product state
	SiteOmegaEmptiness = "omega.emptiness"    // per SCC examined
	SiteOmegaLazy      = "omega.lazy.explore" // per lazily materialized product state
	SiteOmegaMerge     = "omega.mergebuchi"   // per counter-merge state
	SiteMCLazy         = "mc.lazy.explore"    // per lazily materialized model-checking product node
	SiteEngineTask     = "engine.task"        // per pool task started
	SiteEngineBatch    = "engine.batch.item"  // per batch item started
	SitePlan           = "plan.specialized"   // per class-specialized fast path entered
	SiteStoreRead      = "store.read"         // per persistent-store lookup
	SiteStoreWrite     = "store.write"        // per persistent-store record append
)

// armed short-circuits Hit while nothing is injected.
var armed atomic.Bool

var mu sync.Mutex

type injection struct {
	remaining int    // hits left before firing
	err       error  // fire by returning this error...
	panicMsg  string // ...or by panicking with this message
	fired     bool
}

var sites = map[string]*injection{}

// Hit is the hook called from production code. It returns nil (fast, one
// atomic load) unless a test armed this site, in which case the Nth call
// fires the injected error or panic. Once fired, the site disarms.
func Hit(site string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	defer mu.Unlock()
	inj := sites[site]
	if inj == nil || inj.fired {
		return nil
	}
	inj.remaining--
	if inj.remaining > 0 {
		return nil
	}
	inj.fired = true
	if inj.panicMsg != "" {
		panic(fmt.Sprintf("fault: injected panic at %s: %s", site, inj.panicMsg))
	}
	return inj.err
}

// InjectError arms site so that its nth Hit (1-based) returns err. It
// returns a cleanup that disarms the site; tests should defer it.
func InjectError(site string, n int, err error) func() {
	if n < 1 || err == nil {
		panic("fault: InjectError needs n >= 1 and a non-nil error")
	}
	arm(site, &injection{remaining: n, err: err})
	return func() { disarm(site) }
}

// InjectPanic arms site so that its nth Hit (1-based) panics with a
// message containing msg. It returns a cleanup that disarms the site.
func InjectPanic(site string, n int, msg string) func() {
	if n < 1 || msg == "" {
		panic("fault: InjectPanic needs n >= 1 and a non-empty message")
	}
	arm(site, &injection{remaining: n, panicMsg: msg})
	return func() { disarm(site) }
}

func arm(site string, inj *injection) {
	mu.Lock()
	defer mu.Unlock()
	sites[site] = inj
	armed.Store(true)
}

func disarm(site string) {
	mu.Lock()
	defer mu.Unlock()
	delete(sites, site)
	armed.Store(len(sites) > 0)
}

// Fired reports whether the site was armed and has already fired.
func Fired(site string) bool {
	mu.Lock()
	defer mu.Unlock()
	inj := sites[site]
	return inj != nil && inj.fired
}

// Reset disarms every site. Tests use it as a belt-and-braces cleanup.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	sites = map[string]*injection{}
	armed.Store(false)
}
