package autkern

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/budget"
	"repro/internal/fault"
	"repro/internal/obs"
)

const testFrontierSite = "autkern.frontier.test"

var testFrontierClosed = obs.NewCounter("autkern.test.frontier.closed")

// torus is a frontier over the m×n torus: state (x, y) steps to
// (x+1 mod m, y), (x, y+1 mod n) and (x+y mod m, x mod n), so rows
// reach both forward and back in discovery order.
func torus(m, n int32) *Frontier {
	f := NewFrontier(2, testFrontierSite, testFrontierClosed, func(k, dst []int32) []int32 {
		x, y := k[0], k[1]
		return append(dst, (x+1)%m, y, x, (y+1)%n, (x+y)%m, x%n)
	})
	f.Add([]int32{0, 0})
	return f
}

func TestFrontierSequential(t *testing.T) {
	f := torus(5, 3)
	if f.Closed() != 0 || len(f.Rows()) != 1 {
		t.Fatalf("fresh frontier: %d closed, %d discovered", f.Closed(), len(f.Rows()))
	}
	before := testFrontierClosed.Value()
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
	if done, err := f.Explore(context.Background(), 1<<30); err != nil || !done {
		t.Fatalf("Explore = %v, %v", done, err)
	}
	if f.Closed() != 15 || len(f.Rows()) != 15 {
		t.Fatalf("torus 5×3: %d closed of %d, want 15", f.Closed(), len(f.Rows()))
	}
	if d := testFrontierClosed.Value() - before; d != 15 {
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

// TestFrontierGovernance checks the per-state governance prefix: a
// budget, an Nth-hit fault and a canceled context stop exploration at the
// state that tripped them.
func TestFrontierGovernance(t *testing.T) {
	defer fault.Reset()
	bud := budget.New(300, 0)
	f := torus(37, 29)
	if _, err := f.Explore(budget.With(context.Background(), bud), 1<<30); !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("want budget exhaustion, got %v", err)
	}
	if f.Closed() != 300 || bud.States() != 301 {
		t.Fatalf("%d closed, %d charged; want 300, 301", f.Closed(), bud.States())
	}

	boom := errors.New("injected frontier fault")
	cleanup := fault.InjectError(testFrontierSite, 123, boom)
	f = torus(37, 29)
	_, err := f.Explore(context.Background(), 1<<30)
	cleanup()
	if !errors.Is(err, boom) || f.Closed() != 122 {
		t.Fatalf("fault at hit 123: %d closed, err %v; want 122, injected", f.Closed(), err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f = torus(37, 29)
	if _, err := f.Explore(ctx, 1<<30); !errors.Is(err, context.Canceled) || f.Closed() != 0 {
		t.Fatalf("canceled: %d closed, err %v", f.Closed(), err)
	}
}
