package temporal_test

// Observability harness hooks and overhead benchmarks. TestMain wires two
// opt-in flags into every benchmark/test run:
//
//	go test -bench . -obs.stats            # per-stage timing attribution
//	go test -bench . -obs.pprof :6060      # live net/http/pprof server
//
// The overhead benchmarks document the contract of internal/obs: with no
// sink attached, a span or counter touch costs a few nanoseconds and does
// not allocate, so instrumentation can stay on in the hot paths.

import (
	"context"
	"flag"
	"net/http"
	_ "net/http/pprof"
	"os"
	"testing"

	"repro/internal/obs"
)

var (
	obsStats = flag.Bool("obs.stats", false, "print per-stage obs timing summary after the run")
	obsPprof = flag.String("obs.pprof", "", "serve net/http/pprof on this address during the run")
)

func TestMain(m *testing.M) {
	flag.Parse()
	if *obsPprof != "" {
		go func() {
			// DefaultServeMux carries the pprof handlers via the blank import.
			if err := http.ListenAndServe(*obsPprof, nil); err != nil {
				println("obs.pprof:", err.Error())
			}
		}()
	}
	var summary *obs.StageSummary
	if *obsStats {
		summary = obs.NewStageSummary()
		obs.Attach(summary)
	}
	code := m.Run()
	if summary != nil {
		obs.Detach()
		println("── obs stage summary ──")
		summary.Write(os.Stderr)
		obs.WriteMetrics(os.Stderr)
	}
	os.Exit(code)
}

var benchCounter = obs.NewCounter("bench.obs.counter")

// BenchmarkObsDisabledSpan measures the full span lifecycle — start, two
// attributes, end — with no sink attached. This is the price paid inside
// instrumented hot loops during normal (untraced) runs.
func BenchmarkObsDisabledSpan(b *testing.B) {
	if obs.Enabled() {
		b.Skip("a sink is attached; disabled-path benchmark not meaningful")
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := obs.Start(ctx, "bench.obs.span")
		sp.Int("i", i).Str("k", "v").End()
	}
}

// BenchmarkObsDisabledCounter measures a counter increment with no sink:
// one atomic add.
func BenchmarkObsDisabledCounter(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCounter.Inc()
	}
}

// BenchmarkObsEnabledSpan measures the same span lifecycle with a
// StageSummary sink attached, for comparison against the disabled path.
func BenchmarkObsEnabledSpan(b *testing.B) {
	if obs.Enabled() {
		b.Skip("a sink is already attached")
	}
	obs.Attach(obs.NewStageSummary())
	defer obs.Detach()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := obs.Start(ctx, "bench.obs.span")
		sp.Int("i", i).Str("k", "v").End()
	}
}

// TestObsDisabledSpanOverhead enforces the documented budget: a disabled
// span lifecycle stays under 5ns/op and never allocates (satellite of the
// instrumentation PR; guards against accidentally adding work to the
// disabled path).
func TestObsDisabledSpanOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if raceEnabled {
		t.Skip("race instrumentation dominates the atomic load being measured")
	}
	if obs.Enabled() {
		t.Skip("a sink is attached")
	}
	ctx := context.Background()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, sp := obs.Start(ctx, "bench.obs.span")
			sp.Int("i", i).Str("k", "v").End()
		}
	})
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Errorf("disabled span allocates %d times per op; want 0", allocs)
	}
	// 5ns is the documented budget on bare metal; allow generous headroom
	// for loaded CI machines while still catching an accidental mutex or
	// allocation on the disabled path (those cost 25ns+).
	if ns := res.NsPerOp(); ns > 20 {
		t.Errorf("disabled span costs %dns/op; want ≤5ns nominal (20ns CI ceiling)", ns)
	}
}
