package par

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
)

func TestJobsDefaultsToSequential(t *testing.T) {
	ctx := context.Background()
	if got := jobs(ctx); got != 1 {
		t.Fatalf("jobs on bare context = %d, want 1", got)
	}
	if _, ok := JobsFrom(ctx); ok {
		t.Fatalf("JobsFrom on bare context reported a bound")
	}
}

func TestWithJobsClampsAndRoundTrips(t *testing.T) {
	ctx := WithJobs(context.Background(), 8)
	if got := jobs(ctx); got != 8 {
		t.Fatalf("jobs = %d, want 8", got)
	}
	if n, ok := JobsFrom(ctx); !ok || n != 8 {
		t.Fatalf("JobsFrom = (%d, %v), want (8, true)", n, ok)
	}
	if got := jobs(WithJobs(context.Background(), 0)); got != 1 {
		t.Fatalf("jobs after WithJobs(0) = %d, want clamped 1", got)
	}
	if got := jobs(WithJobs(context.Background(), -3)); got != 1 {
		t.Fatalf("jobs after WithJobs(-3) = %d, want clamped 1", got)
	}
}

// splitCtx pins a parallelism bound and shrinks the wave threshold to 1,
// so Split always shards and only the chunk-size rules are under test.
func splitCtx(jobs, minChunk int) context.Context {
	return WithShardThresholds(WithJobs(context.Background(), jobs), 1, minChunk)
}

func TestSplitCoversRangeContiguously(t *testing.T) {
	for _, tc := range []struct{ lo, hi, jobs, minChunk int }{
		{0, 1000, 4, 1},
		{7, 9, 8, 1},
		{0, 1000, 2, 64},
		{100, 5000, 8, 64},
		{0, 3, 16, 256},
	} {
		chunks := Split(splitCtx(tc.jobs, tc.minChunk), tc.lo, tc.hi)
		if len(chunks) == 0 {
			t.Fatalf("Split(%+v): no chunks", tc)
		}
		if len(chunks) > tc.jobs*chunksPerWorker {
			t.Fatalf("Split(%+v): %d chunks exceeds jobs*chunksPerWorker", tc, len(chunks))
		}
		cur := tc.lo
		for _, c := range chunks {
			if c[0] != cur || c[1] <= c[0] {
				t.Fatalf("Split(%+v): chunk %v breaks contiguity at %d", tc, c, cur)
			}
			cur = c[1]
		}
		if cur != tc.hi {
			t.Fatalf("Split(%+v): covered up to %d, want %d", tc, cur, tc.hi)
		}
		for i, c := range chunks {
			if i < len(chunks)-1 && c[1]-c[0] < tc.minChunk {
				t.Fatalf("Split(%+v): non-final chunk %v under minChunk", tc, c)
			}
		}
	}
}

func TestSplitEmptyRange(t *testing.T) {
	ctx := splitCtx(4, 1)
	if got := Split(ctx, 5, 5); got != nil {
		t.Fatalf("Split on empty range = %v, want nil", got)
	}
	if got := Split(ctx, 9, 5); got != nil {
		t.Fatalf("Split on inverted range = %v, want nil", got)
	}
}

// TestSplitThresholds pins when a wave is sharded at all: never without a
// parallelism bound above 1, never below the minimum wave (256 by default,
// lowered per context by WithShardThresholds), always at or above it.
func TestSplitThresholds(t *testing.T) {
	bg := context.Background()
	for _, tc := range []struct {
		name  string
		ctx   context.Context
		n     int
		shard bool
	}{
		{"no bound", bg, 10000, false},
		{"bound 1", WithJobs(bg, 1), 10000, false},
		{"below default wave", WithJobs(bg, 2), 255, false},
		{"at default wave", WithJobs(bg, 2), 256, true},
		{"below lowered wave", WithShardThresholds(WithJobs(bg, 2), 2, 1), 1, false},
		{"at lowered wave", WithShardThresholds(WithJobs(bg, 2), 2, 1), 2, true},
	} {
		if got := Split(tc.ctx, 0, tc.n) != nil; got != tc.shard {
			t.Errorf("%s: sharded=%v, want %v", tc.name, got, tc.shard)
		}
	}
	// Default chunking: 256 items over 2 workers is 8 target chunks, but
	// the 64-item minimum caps it at 4.
	if got := len(Split(WithJobs(bg, 2), 0, 256)); got != 4 {
		t.Errorf("default chunking of a 256-item wave at jobs=2: %d chunks, want 4", got)
	}
}

func TestRunProcessesEveryChunkOnce(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 8, 200} {
		var counts [n]atomic.Int32
		st := Run(WithJobs(context.Background(), workers), n, func(ci int) {
			counts[ci].Add(1)
		})
		for ci := range counts {
			if got := counts[ci].Load(); got != 1 {
				t.Fatalf("workers=%d: chunk %d processed %d times", workers, ci, got)
			}
		}
		if st.Chunks != n {
			t.Fatalf("workers=%d: Stats.Chunks = %d, want %d", workers, st.Chunks, n)
		}
		if st.Workers < 1 || st.Workers > workers {
			t.Fatalf("workers=%d: Stats.Workers = %d out of range", workers, st.Workers)
		}
	}
}

func TestRunPerturbedStillProcessesEveryChunkOnce(t *testing.T) {
	const n = 64
	ctx := WithPerturb(WithJobs(context.Background(), 8), 42)
	for wave := 0; wave < 3; wave++ {
		var counts [n]atomic.Int32
		Run(ctx, n, func(ci int) { counts[ci].Add(1) })
		for ci := range counts {
			if got := counts[ci].Load(); got != 1 {
				t.Fatalf("wave %d: chunk %d processed %d times", wave, ci, got)
			}
		}
	}
}

func TestRunZeroChunks(t *testing.T) {
	st := Run(WithJobs(context.Background(), 4), 0, func(int) {
		t.Fatal("process called with no chunks")
	})
	if st != (Stats{}) {
		t.Fatalf("Stats = %+v, want zero", st)
	}
}

func TestRunPropagatesWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
					t.Fatalf("workers=%d: unexpected panic value %v", workers, r)
				}
			}()
			Run(WithJobs(context.Background(), workers), 16, func(ci int) {
				if ci == 7 {
					panic("boom in chunk 7")
				}
			})
		}()
	}
}
