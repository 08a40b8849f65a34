package autkern

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/budget"
	"repro/internal/fault"
	"repro/internal/par"
)

const testFrontierSite = "autkern.frontier.test"

var testFrontierMetrics = NewFrontierMetrics("autkern.test.frontier.closed", "autkern.test.parallel")

// torus is a frontier over the m×n torus: state (x, y) steps to
// (x+1 mod m, y), (x, y+1 mod n) and (x+y mod m, x mod n), so waves grow
// and rows cross chunk boundaries in both directions.
func torus(m, n int32) *Frontier {
	f := NewFrontier(2, testFrontierSite, testFrontierMetrics, func(k, dst []int32) []int32 {
		x, y := k[0], k[1]
		return append(dst, (x+1)%m, y, x, (y+1)%n, (x+y)%m, x%n)
	})
	f.Add([]int32{0, 0})
	return f
}

func exploreAll(t *testing.T, ctx context.Context, f *Frontier) {
	t.Helper()
	done, err := f.Explore(ctx, 1<<30)
	if err != nil || !done {
		t.Fatalf("Explore = %v, %v", done, err)
	}
}

func TestFrontierSequential(t *testing.T) {
	f := torus(5, 3)
	if f.Closed() != 0 || len(f.Rows()) != 1 {
		t.Fatalf("fresh frontier: %d closed, %d discovered", f.Closed(), len(f.Rows()))
	}
	before := testFrontierMetrics.closed.Value()
	done, err := f.Explore(context.Background(), 4)
	if err != nil || done {
		t.Fatalf("limit-4 wave = %v, %v", done, err)
	}
	if f.Closed() < 4 {
		t.Fatalf("closed %d states, want ≥ 4", f.Closed())
	}
	closed := f.Closed()
	if _, err := f.Explore(context.Background(), 2); err != nil || f.Closed() != closed {
		t.Fatalf("lower limit regressed: %d closed, err %v", f.Closed(), err)
	}
	exploreAll(t, context.Background(), f)
	if f.Closed() != 15 || len(f.Rows()) != 15 {
		t.Fatalf("torus 5×3: %d closed of %d, want 15", f.Closed(), len(f.Rows()))
	}
	if d := testFrontierMetrics.closed.Value() - before; d != 15 {
		t.Fatalf("closed counter moved by %d, want 15", d)
	}
	// BFS discovery order from (0,0): successors in row order.
	want := [][]int32{{0, 0}, {1, 0}, {0, 1}, {2, 0}, {1, 1}}
	for i, k := range want {
		if got := f.Key(i); !reflect.DeepEqual(got, k) {
			t.Fatalf("state %d = %v, want %v", i, got, k)
		}
	}
	// Every row is the interned successor list of its key.
	for q, row := range f.Rows() {
		x, y := f.Key(q)[0], f.Key(q)[1]
		succ := [][]int32{{(x + 1) % 5, y}, {x, (y + 1) % 3}, {(x + y) % 5, x % 3}}
		for i, s := range succ {
			if got := f.Key(row[i]); !reflect.DeepEqual(got, s) {
				t.Fatalf("row %d[%d] → %v, want %v", q, i, got, s)
			}
		}
	}
}

// TestFrontierShardedMatchesSequential is the frontier's own
// schedule-independence check: at any worker count and perturbed
// schedule, with waves sharded, the intern order and every row equal the
// sequential run's.
func TestFrontierShardedMatchesSequential(t *testing.T) {
	seq := torus(37, 29)
	exploreAll(t, context.Background(), seq)
	waves := testFrontierMetrics.waves.Value()
	for _, jobs := range []int{2, 8} {
		for _, seed := range []int64{0, 5} {
			ctx := par.WithShardThresholds(par.WithJobs(context.Background(), jobs), 2, 1)
			if seed != 0 {
				ctx = par.WithPerturb(ctx, seed)
			}
			f := torus(37, 29)
			exploreAll(t, ctx, f)
			if !reflect.DeepEqual(f.index.keys, seq.index.keys) {
				t.Fatalf("jobs=%d seed=%d: intern order diverged", jobs, seed)
			}
			if !reflect.DeepEqual(f.Rows(), seq.Rows()) {
				t.Fatalf("jobs=%d seed=%d: rows diverged", jobs, seed)
			}
		}
	}
	if testFrontierMetrics.waves.Value() == waves {
		t.Fatal("no sharded wave ran")
	}
}

// TestFrontierGovernance checks the per-state governance prefix degrades
// identically on both paths: a budget, an Nth-hit fault and a canceled
// context stop exploration after the same number of closed states.
func TestFrontierGovernance(t *testing.T) {
	defer fault.Reset()
	ctxs := map[string]context.Context{
		"sequential": context.Background(),
		"sharded":    par.WithShardThresholds(par.WithJobs(context.Background(), 4), 2, 1),
	}
	boom := errors.New("injected frontier fault")
	for name, ctx := range ctxs {
		bud := budget.New(300, 0)
		f := torus(37, 29)
		if _, err := f.Explore(budget.With(ctx, bud), 1<<30); !errors.Is(err, budget.ErrBudgetExceeded) {
			t.Fatalf("%s: want budget exhaustion, got %v", name, err)
		}
		if f.Closed() != 300 || bud.States() != 301 {
			t.Fatalf("%s: %d closed, %d charged; want 300, 301", name, f.Closed(), bud.States())
		}

		cleanup := fault.InjectError(testFrontierSite, 123, boom)
		f = torus(37, 29)
		_, err := f.Explore(ctx, 1<<30)
		cleanup()
		if !errors.Is(err, boom) || f.Closed() != 122 {
			t.Fatalf("%s: fault at hit 123: %d closed, err %v; want 122, injected", name, f.Closed(), err)
		}

		cctx, cancel := context.WithCancel(ctx)
		cancel()
		f = torus(37, 29)
		if _, err := f.Explore(cctx, 1<<30); !errors.Is(err, context.Canceled) || f.Closed() != 0 {
			t.Fatalf("%s: canceled: %d closed, err %v", name, f.Closed(), err)
		}
	}
}

func TestClip(t *testing.T) {
	chunks := [][2]int{{0, 4}, {4, 8}, {8, 10}}
	if got := clip(append([][2]int{}, chunks...), 10); !reflect.DeepEqual(got, chunks) {
		t.Fatalf("clip to the end = %v", got)
	}
	if got := clip(append([][2]int{}, chunks...), 6); !reflect.DeepEqual(got, [][2]int{{0, 4}, {4, 6}}) {
		t.Fatalf("clip mid-chunk = %v", got)
	}
	if got := clip(append([][2]int{}, chunks...), 4); !reflect.DeepEqual(got, [][2]int{{0, 4}}) {
		t.Fatalf("clip at a boundary = %v", got)
	}
}
