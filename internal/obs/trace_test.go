package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDMinting(t *testing.T) {
	seen := map[TraceID]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace id %q is not 16 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

func TestTraceIDContext(t *testing.T) {
	ctx := context.Background()
	if TraceIDFrom(ctx) != "" {
		t.Error("empty context must carry no trace id")
	}
	ctx2, id := EnsureTraceID(ctx)
	if id == "" || TraceIDFrom(ctx2) != id {
		t.Errorf("EnsureTraceID: id=%q from=%q", id, TraceIDFrom(ctx2))
	}
	ctx3, id2 := EnsureTraceID(ctx2)
	if id2 != id || ctx3 != ctx2 {
		t.Error("EnsureTraceID must reuse an attached id")
	}
	if got := TraceIDFrom(WithTraceID(ctx, "abc")); got != "abc" {
		t.Errorf("WithTraceID round-trip = %q", got)
	}
	if WithTraceID(ctx, "") != ctx {
		t.Error("attaching the zero id must be a no-op")
	}
}

// TestSpanTraceIDInheritance: a root span stamped with its context's
// trace id hands it to nested children, and the JSONL records carry it.
func TestSpanTraceIDInheritance(t *testing.T) {
	var buf bytes.Buffer
	jsonl := NewJSONLSink(&buf)
	Attach(jsonl)
	defer Detach()

	ctx := WithTraceID(context.Background(), "feedfacecafebeef")
	ctx, root := Start(ctx, "req.root")
	ctx, child := Start(ctx, "req.child")
	_, grand := Start(ctx, "req.grandchild")
	grand.End()
	child.End()
	root.End()
	Detach()
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 span records, got %d:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec["trace_id"] != "feedfacecafebeef" {
			t.Errorf("span %v lacks the inherited trace id", rec["name"])
		}
	}
}

func TestRootTakesContextTraceID(t *testing.T) {
	Attach(&Collector{})
	defer Detach()
	// A span started from a context with its own trace id and no span is
	// a root with the context's id, even while another request's span is
	// open (concurrent-request case).
	_, outer := Start(WithTraceID(context.Background(), "aaaaaaaaaaaaaaaa"), "outer")
	_, inner := Start(WithTraceID(context.Background(), "bbbbbbbbbbbbbbbb"), "inner")
	if inner.TraceID != "bbbbbbbbbbbbbbbb" {
		t.Errorf("inner trace id = %q, want the context's", inner.TraceID)
	}
	inner.End()
	outer.End()
}

func TestSlowOpSink(t *testing.T) {
	var buf bytes.Buffer
	slow := NewSlowOpSink(&buf, 10*time.Millisecond)
	Attach(slow)
	defer Detach()

	ctx := WithTraceID(context.Background(), "deadbeefdeadbeef")
	ctx, root := Start(ctx, "req.slow")
	root.Int("states", 7)
	_, fast := Start(ctx, "req.fast")
	fast.End() // well under threshold
	time.Sleep(20 * time.Millisecond)
	root.End()
	Detach()
	if err := slow.Err(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want exactly one slowop record, got %d:\n%s", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["record"] != "slowop" || rec["name"] != "req.slow" {
		t.Errorf("record = %v", rec)
	}
	if rec["trace_id"] != "deadbeefdeadbeef" {
		t.Errorf("slowop record lacks trace id: %v", rec)
	}
	if rec["threshold_ns"] != float64(10*time.Millisecond) {
		t.Errorf("threshold_ns = %v", rec["threshold_ns"])
	}
	if attrs, ok := rec["attrs"].(map[string]any); !ok || attrs["states"] != float64(7) {
		t.Errorf("attrs = %v", rec["attrs"])
	}
	if rec["duration_ns"].(float64) < float64(10*time.Millisecond) {
		t.Errorf("duration %v under threshold", rec["duration_ns"])
	}
}

// TestJSONLSinkCloseFlushesAndSyncs: records written before Close must
// be on disk after it (the buffered writer must flush and the file must
// sync), and writes after Close must report ErrSinkClosed instead of
// disappearing into a dead buffer.
func TestJSONLSinkCloseFlushesAndSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	jsonl := NewJSONLSink(f)

	Attach(jsonl)
	_, sp := Start(context.Background(), "close.work")
	sp.End()
	Detach()

	if err := jsonl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "close.work") {
		t.Errorf("record not flushed by Close: %q", data)
	}

	// Writes after Close are refused with a sticky error.
	jsonl.RootEnded(&Span{Name: "late"})
	if err := jsonl.Err(); err != ErrSinkClosed {
		t.Errorf("post-Close write error = %v, want ErrSinkClosed", err)
	}
	if err := jsonl.WriteMetrics(); err != ErrSinkClosed {
		t.Errorf("post-Close WriteMetrics = %v, want ErrSinkClosed", err)
	}
	if err := jsonl.Close(); err != ErrSinkClosed {
		t.Errorf("second Close = %v, want the sticky error", err)
	}
	if data2, _ := os.ReadFile(path); strings.Contains(string(data2), `"late"`) {
		t.Error("record written after Close leaked to the file")
	}
}

// TestJSONLSinkConcurrentWriters hammers one sink from many goroutines
// (as the daemon does, one per request) with a concurrent Close, and
// checks that every line that reached the file is whole, valid JSON.
// Run under -race, this is the satellite's data-race regression test.
func TestJSONLSinkConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	jsonl := NewJSONLSink(f)

	const writers = 8
	const spansPerWriter = 200
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < spansPerWriter; i++ {
				root := &Span{
					Name:    fmt.Sprintf("w%d.op", g),
					TraceID: NewTraceID(),
					Began:   time.Now(),
				}
				root.Children = append(root.Children, &Span{Name: "child", parent: root})
				jsonl.RootEnded(root)
				if i == spansPerWriter/2 && g == 0 {
					jsonl.Close() // races with the other writers on purpose
				}
			}
		}(g)
	}
	wg.Wait()
	jsonl.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	n := 0
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("torn or invalid line %d: %q", n, sc.Text())
		}
		n++
	}
	if n == 0 {
		t.Error("no lines reached the file before Close")
	}
	if err := jsonl.Err(); err != ErrSinkClosed {
		t.Errorf("writers after Close must observe ErrSinkClosed, got %v", err)
	}
}
