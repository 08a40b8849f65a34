package main

import (
	"fmt"
	"os"
	"strings"
	"time"
)

// period is one pass (in-process workloads) or one slot (daemon) of the
// timed window. Throughput and peak memory are reported as medians over
// periods, so a short stall on a shared host moves them little.
type period struct {
	ops    int64
	dur    time.Duration
	peakKB int64 // VmHWM of the working process over the period
}

// report accumulates one run's measurements.
type report struct {
	opts      options
	started   time.Time
	attempted int64
	failed    int64
	failures  []string // the first failing inputs, with the reason

	setup []time.Duration // repeated set-up timings; the median is reported

	lat      []time.Duration // per-operation latency in untraced periods
	cur      int64           // operations completed in the open period
	paused   time.Duration   // time the open period spent generating inputs
	untraced []period
	traced   []period
	conns    int // closed-loop connections sharing the wall time

	serverLat []time.Duration // daemon-reported server time, traced slots

	tr     *tracer           // layer spans over traced periods
	cnt    counters          // program counter deltas over traced periods
	checks map[string]string // self-checks: pass, fail: …, or skipped: …
	notes  map[string]any    // extra report fields
}

func newReport(o options) *report {
	return &report{
		opts:    o,
		started: time.Now(),
		conns:   1,
		tr:      newTracer(),
		cnt:     counters{},
		checks:  map[string]string{},
		notes:   map[string]any{"host_ref_ms_start": ms(hostReference())},
	}
}

// maxFailuresShown bounds the failing inputs printed in the report.
const maxFailuresShown = 20

// judge counts one attempted operation and records a failure when err
// is set or the verdict differs from the known answer.
func (r *report) judge(input string, err error, ok bool, why string) {
	r.attempted++
	if err == nil && ok {
		return
	}
	r.failed++
	msg := why
	if err != nil {
		msg = err.Error()
	}
	line := fmt.Sprintf("%s: %s", input, msg)
	fmt.Fprintln(os.Stderr, "perfbench: failed:", line)
	if len(r.failures) < maxFailuresShown {
		r.failures = append(r.failures, line)
	}
}

// record counts one completed operation in the open period, keeping its
// latency when the period is untraced.
func (r *report) record(d time.Duration, traced bool) {
	r.cur++
	if !traced {
		r.lat = append(r.lat, d)
	}
}

// pause runs f, the benchmark's own input generation, outside the open
// period's measured time.
func (r *report) pause(f func()) {
	start := time.Now()
	f()
	r.paused += time.Since(start)
}

// endPeriod closes the open period.
func (r *report) endPeriod(d time.Duration, traced bool, peakKB int64) {
	p := period{ops: r.cur, dur: d, peakKB: peakKB}
	r.cur = 0
	if traced {
		r.traced = append(r.traced, p)
	} else {
		r.untraced = append(r.untraced, p)
	}
}

// done reports whether the timed window is over: it has run its seconds,
// p99 has enough samples behind it, and a traced run has both traced and
// untraced periods. A hard cap keeps a slow host inside the run's time
// limit.
func (r *report) done(start time.Time) bool {
	periods := len(r.untraced) + len(r.traced)
	el := time.Since(start)
	if el > hardCap(r.opts.seconds) {
		return true
	}
	if r.opts.smoke {
		return periods >= 1 && (!r.opts.trace || periods >= 2)
	}
	if el < time.Duration(r.opts.seconds*float64(time.Second)) {
		return false
	}
	if r.opts.trace {
		return len(r.traced) > 0 && len(r.untraced) > 0
	}
	return len(r.lat) >= minSamples
}

// hardCap bounds a timed window that waits for the p99 sample floor.
func hardCap(seconds float64) time.Duration {
	return time.Duration((2*seconds + 20) * float64(time.Second))
}

// runPasses runs pass until the window is done, one period per pass. In
// a traced run, passes alternate between untraced and traced so the
// tracing overhead is measured on the same inputs; program counters are
// summed over the traced passes only.
func (r *report) runPasses(pass func(tr *tracer, pass int)) error {
	start := time.Now()
	i := 0
	for ; !r.done(start); i++ {
		traced := r.opts.trace && i%2 == 1
		var tr *tracer
		var before counters
		if traced {
			tr = r.tr
			before = snapshot()
		}
		if err := resetPeakRSS("self"); err != nil {
			return err
		}
		r.paused = 0
		t0 := time.Now()
		pass(tr, i)
		d := time.Since(t0) - r.paused
		kb, err := peakRSSKB("self")
		if err != nil {
			return err
		}
		if traced {
			r.cnt.add(snapshot().delta(before))
		}
		r.endPeriod(d, traced, kb)
	}
	r.notes["passes"] = i
	return nil
}

// throughput is the median over periods of operations per second.
func throughput(ps []period) float64 {
	rates := make([]float64, len(ps))
	for i, p := range ps {
		rates[i] = ratio(float64(p.ops), p.dur.Seconds())
	}
	return medianFloat(rates)
}

func totals(ps []period) (ops int64, dur time.Duration) {
	for _, p := range ps {
		ops += p.ops
		dur += p.dur
	}
	return ops, dur
}

func (r *report) endToEndValues() map[string]float64 {
	s := sortedCopy(r.lat)
	peaks := make([]float64, len(r.untraced))
	for i, p := range r.untraced {
		peaks[i] = float64(p.peakKB) / 1024
	}
	return map[string]float64{
		"setup_s":     median(r.setup).Seconds(),
		"ops_per_s":   throughput(r.untraced),
		"p50_ms":      ms(percentile(s, 0.50)),
		"p99_ms":      ms(percentile(s, 0.99)),
		"ok_frac":     1 - ratio(float64(r.failed), float64(r.attempted)),
		"peak_rss_mb": medianFloat(peaks),
	}
}

// shareLayers are the layer spans whose busy time is reported as a
// share of wall time; tracer layers are named "<share layer>[.<detail>]".
var shareLayers = []string{
	"ltl.parse", "engine.compile", "engine.classify", "engine.plan",
	"ts.build", "engine.verify", "engine.contains",
	"temporald.server", "temporald.transport",
}

// tiers are the planner's tier names (plan.Tier.String).
var tiers = []string{"safety", "guarantee", "obligation", "recurrence", "persistence", "streett"}

// layerValues derives the per-layer metrics of a traced run.
func (r *report) layerValues() map[string]float64 {
	v := map[string]float64{}
	v["temporald.server_p99_ms"] = ms(percentile(sortedCopy(r.serverLat), 0.99))
	v["ltl.parse_us"] = r.tr.meanMS("ltl.parse") * 1000
	for _, l := range []string{"engine.compile", "engine.classify", "engine.plan", "ts.build", "temporald.server", "temporald.transport"} {
		v[l+"_ms"] = r.tr.meanMS(l)
	}
	for _, t := range tiers {
		v["engine.verify_ms."+t] = r.tr.meanMS("engine.verify." + t)
		v["engine.contains_ms."+t] = r.tr.meanMS("engine.contains." + t)
	}

	tOps, tDur := totals(r.traced)
	ops := float64(tOps)
	c := r.cnt
	for _, n := range []string{
		"compile.past2dfa.states", "omega.product.states", "autkern.scc.runs", "autkern.scc.nodes",
		"mc.lazy.nodes_materialized", "mc.refine.rounds",
		"mc.parallel.waves", "mc.parallel.shards", "mc.parallel.steals",
		"omega.lazy.states_materialized",
		"omega.parallel.waves", "omega.parallel.shards", "omega.parallel.steals",
		"engine.cache.evictions", "store.writes", "store.dropped_writes",
	} {
		v[n] = ratio(c[promKey(n)], ops)
	}
	var dispatched float64
	for _, t := range tiers {
		n := c[pathKey(t)]
		v["plan.path."+t] = ratio(n, ops)
		dispatched += n
	}
	v["plan.fallback_ratio"] = ratio(c[promKey("plan.fallbacks")], dispatched)
	v["omega.lazy.early_exit_ratio"] = ratio(c[promKey("omega.lazy.early_exits")], c[pathKey("streett")])
	hits, misses := c[promKey("engine.cache.hits")], c[promKey("engine.cache.misses")]
	v["engine.cache.hit_ratio"] = ratio(hits, hits+misses)
	sh, sm := c[promKey("store.hits")], c[promKey("store.misses")]
	v["store.hit_ratio"] = ratio(sh, sh+sm)

	// Busy shares of the traced wall time. For the daemon the wall time
	// is per connection: each connection is one closed loop.
	wall := tDur.Seconds() * float64(r.conns)
	for _, s := range shareLayers {
		var busy time.Duration
		for name, d := range r.tr.busy {
			if name == s || strings.HasPrefix(name, s+".") {
				busy += d
			}
		}
		v["busy_share."+s] = ratio(busy.Seconds(), wall)
	}
	var covered time.Duration
	for _, d := range r.tr.busy {
		covered += d
	}
	v["attribution_coverage"] = ratio(covered.Seconds(), wall)
	traced, untraced := throughput(r.traced), throughput(r.untraced)
	v["traced_ops_per_s"] = traced
	v["untraced_ops_per_s"] = untraced
	v["tracing_overhead"] = 1 - ratio(traced, untraced)
	return v
}

// pathKey is the series name of the planner's per-tier dispatch counter.
func pathKey(tier string) string { return promKey("plan.path") + `{tier="` + tier + `"}` }

func (r *report) summary() map[string]any {
	out := map[string]any{
		"host_ref_ms_end":  ms(hostReference()),
		"workload":         r.opts.workload,
		"seed":             r.opts.seed,
		"trace":            r.opts.trace,
		"host":             hostFacts(r.opts),
		"samples":          len(r.lat),
		"samples_past_p99": beyond(len(r.lat), 0.99),
		"setup_runs":       len(r.setup),
		"periods":          len(r.untraced) + len(r.traced),
		"checks":           r.checks,
		"failures":         r.failures,
		"elapsed_s":        time.Since(r.started).Seconds(),
	}
	rates := make([]float64, len(r.untraced))
	for i, p := range r.untraced {
		rates[i] = ratio(float64(p.ops), p.dur.Seconds())
	}
	out["period_ops_per_s"] = rates
	for k, v := range r.notes {
		out[k] = v
	}
	return out
}
