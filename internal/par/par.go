// Package par is the scheduling substrate of the sharded state-space
// search: it carries the engine's parallelism bound through contexts,
// decides which exploration waves are worth sharding and partitions them
// into contiguous chunks, and runs chunk workers with dynamic
// (work-stealing) hand-out.
//
// The package deliberately knows nothing about automata. The exploration
// frontier (autkern.Frontier) owns the determinism argument — chunk
// results are merged at a barrier in chunk order, so dense state ids
// never depend on which worker ran first — and par's only obligation is
// that every chunk is processed exactly once before Run returns.
//
// Two test-only context hooks widen what the schedule-independence
// suites cover: WithPerturb randomizes the chunk hand-out order and
// injects microsecond-scale worker delays (the seed makes any failure
// replayable), and WithShardThresholds lowers the sharding thresholds so
// small products take the sharded path.
package par

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

type jobsKey struct{}

type perturbKey struct{}

type thresholdsKey struct{}

// WithJobs returns a context carrying the parallelism bound n (clamped to
// at least 1) for the sharded exploration waves downstream of it.
func WithJobs(ctx context.Context, n int) context.Context {
	if n < 1 {
		n = 1
	}
	return context.WithValue(ctx, jobsKey{}, n)
}

// jobs returns the context's parallelism bound; 1 (fully sequential) when
// none was attached, so library callers outside an engine request keep
// the single-goroutine behavior.
func jobs(ctx context.Context) int {
	if n, ok := JobsFrom(ctx); ok {
		return n
	}
	return 1
}

// JobsFrom reports the context's parallelism bound and whether one was
// attached at all — the engine uses it to avoid overriding a bound the
// caller set explicitly.
func JobsFrom(ctx context.Context) (int, bool) {
	n, ok := ctx.Value(jobsKey{}).(int)
	return n, ok
}

// perturb is the schedule-perturbation state shared by every wave under
// one WithPerturb context. The sequence counter gives each wave its own
// derived seed, so waves are perturbed differently but the whole run is
// reproducible from the root seed.
type perturb struct {
	seed int64
	seq  atomic.Int64
}

// WithPerturb returns a context under which Run randomizes chunk hand-out
// order and sleeps workers for random sub-millisecond intervals, all
// derived from seed. Test-only by intent: it widens the interleaving
// space the schedule-independence suite covers.
func WithPerturb(ctx context.Context, seed int64) context.Context {
	return context.WithValue(ctx, perturbKey{}, &perturb{seed: seed})
}

func perturbFrom(ctx context.Context) *perturb {
	p, _ := ctx.Value(perturbKey{}).(*perturb)
	return p
}

// chunksPerWorker oversizes the chunk count relative to the worker count
// so a slow chunk (dense rows, cold cache) is balanced by idle workers
// stealing the remainder instead of stalling the wave barrier.
const chunksPerWorker = 4

// thresholds are the sharding knobs: minWave is the smallest wave worth
// sharding (below it the goroutine and barrier overhead beats any
// speedup), minChunk bounds chunks from below for the same reason.
type thresholds struct{ minWave, minChunk int }

var defaultThresholds = thresholds{minWave: 256, minChunk: 64}

// WithShardThresholds returns a context under which Split shards waves
// of at least minWave items into chunks of at least minChunk. Test-only
// by intent: the schedule-independence suites shrink both so the small
// products of their corpora take the sharded path.
func WithShardThresholds(ctx context.Context, minWave, minChunk int) context.Context {
	return context.WithValue(ctx, thresholdsKey{}, thresholds{minWave, minChunk})
}

// Split decides whether the wave [lo, hi) is sharded under the context's
// parallelism bound and thresholds. It returns nil when the wave should
// run sequentially — a bound of 1 or a wave below the minimum — and
// otherwise at most jobs*chunksPerWorker contiguous half-open chunks of
// at least the minimum chunk size. The boundaries depend only on the
// arguments and the context — never on scheduling — which the frontier
// relies on for its barrier-merge determinism argument.
func Split(ctx context.Context, lo, hi int) [][2]int {
	n, j := hi-lo, jobs(ctx)
	if j <= 1 || n <= 0 {
		return nil
	}
	th, ok := ctx.Value(thresholdsKey{}).(thresholds)
	if !ok {
		th = defaultThresholds
	}
	if n < th.minWave {
		return nil
	}
	size := (n + j*chunksPerWorker - 1) / (j * chunksPerWorker)
	if size < th.minChunk {
		size = th.minChunk
	}
	chunks := make([][2]int, 0, (n+size-1)/size)
	for s := lo; s < hi; s += size {
		chunks = append(chunks, [2]int{s, min(s+size, hi)})
	}
	return chunks
}

// Stats reports how one Run call was scheduled. Steals counts chunks a
// worker claimed outside its static round-robin share — the dynamic
// hand-out at work; the figure feeds the *.parallel.steals counters.
type Stats struct {
	Workers int
	Chunks  int
	Steals  int
}

// Run executes process(chunk) for every chunk index in [0, nchunks) on up
// to the context's parallelism bound of goroutines and returns once all
// chunks completed — it is the wave barrier. Chunks are claimed dynamically off a shared atomic
// cursor; under WithPerturb the claim order is a seeded permutation and
// workers sleep briefly between claims. A panic in process is re-raised
// on the calling goroutine after the barrier, so the engine's recovery
// boundary sees it exactly as it would a sequential panic.
func Run(ctx context.Context, nchunks int, process func(chunk int)) Stats {
	if nchunks <= 0 {
		return Stats{}
	}
	workers := jobs(ctx)
	if workers > nchunks {
		workers = nchunks
	}
	if workers <= 1 {
		for ci := 0; ci < nchunks; ci++ {
			process(ci)
		}
		return Stats{Workers: 1, Chunks: nchunks}
	}
	order := make([]int, nchunks)
	for i := range order {
		order[i] = i
	}
	pr := perturbFrom(ctx)
	var waveSeed int64
	if pr != nil {
		waveSeed = pr.seed + pr.seq.Add(1)
		rand.New(rand.NewSource(waveSeed)).Shuffle(nchunks, func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
	}
	var (
		cursor  atomic.Int64
		steals  atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicV == nil {
						panicV = r
					}
					panicMu.Unlock()
				}
			}()
			var rng *rand.Rand
			if pr != nil {
				rng = rand.New(rand.NewSource(waveSeed + int64(w)*7919))
			}
			for {
				i := int(cursor.Add(1)) - 1
				if i >= nchunks {
					return
				}
				if rng != nil {
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
				ci := order[i]
				if ci%workers != w {
					steals.Add(1)
				}
				process(ci)
			}
		}(w)
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
	return Stats{Workers: workers, Chunks: nchunks, Steals: int(steals.Load())}
}
