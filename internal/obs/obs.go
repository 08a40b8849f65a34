// Package obs is the zero-dependency observability layer of the
// classification and model-checking pipeline: hierarchical timed spans,
// process-wide counters/gauges/histograms, and pluggable sinks (an
// in-memory collector for tests, a human-readable tree printer, and a
// JSON-lines exporter with flat, CSV-friendly records).
//
// The design goal is that instrumentation is effectively free when no
// sink is attached: Start performs a single atomic load and returns its
// context unchanged with a nil *Span, and every Span method is a no-op on
// a nil receiver. Hot paths therefore call obs.Start / span.Int /
// span.End unconditionally. Attribute helpers take scalar arguments (no
// variadic []Attr at the call site) so that the disabled path allocates
// nothing; expensive renderings (formula strings) are deferred with
// Span.Stringer and only evaluated when a sink consumes the span.
//
// The context is the only carrier of the parent span: Start parents the
// new span under the span in its ctx and returns a context carrying the
// new one, which the caller passes to the calls the span wraps. Each
// request, and each goroutine a request fans out to, therefore builds
// its own subtree, with no process-wide state beyond the attached sinks.
// Siblings may end concurrently; each appends itself to its parent under
// the parent's lock.
package obs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value attribute of a span. Value is an int64, string,
// bool, or fmt.Stringer (rendered lazily by sinks).
type Attr struct {
	Key   string
	Value any
}

// ValueString renders the attribute value.
func (a Attr) ValueString() string {
	switch v := a.Value.(type) {
	case string:
		return v
	case fmt.Stringer:
		return v.String()
	default:
		return fmt.Sprint(v)
	}
}

func (a Attr) String() string { return a.Key + "=" + a.ValueString() }

// Span is one timed stage of the pipeline. A nil *Span is a valid no-op
// span — it is what Start returns while no sink is attached — so
// instrumented code never needs to branch on Enabled.
type Span struct {
	Name     string
	TraceID  TraceID // request correlation id; inherited from the parent span
	Began    time.Time
	Duration time.Duration
	Attrs    []Attr
	Children []*Span

	parent *Span
	mu     sync.Mutex // guards Children: siblings may end concurrently
	sinks  []Sink     // a root's delivery targets, captured at Start
}

// Int attaches an integer attribute; returns the span for chaining.
func (s *Span) Int(key string, v int) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{key, int64(v)})
	return s
}

// Int64 attaches an int64 attribute.
func (s *Span) Int64(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{key, v})
	return s
}

// Str attaches a string attribute.
func (s *Span) Str(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{key, v})
	return s
}

// Bool attaches a boolean attribute.
func (s *Span) Bool(key string, v bool) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{key, v})
	return s
}

// Stringer attaches a lazily rendered attribute: v.String() is called
// only when a sink consumes the span, so instrumented code can pass
// formulas and automata without paying for rendering up front.
func (s *Span) Stringer(key string, v fmt.Stringer) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{key, v})
	return s
}

// Attr returns the value of the named attribute and whether it is set.
func (s *Span) Attr(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// End closes the span, records its duration, and delivers it: a child
// appends itself to its parent's Children, a root hands its finished tree
// to the sinks attached when it started. A child must end before its
// parent, as it does when every span's End is deferred in the function
// that started it.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Duration = time.Since(s.Began)
	if p := s.parent; p != nil {
		p.mu.Lock()
		p.Children = append(p.Children, s)
		p.mu.Unlock()
		return
	}
	for _, sink := range s.sinks {
		sink.RootEnded(s)
	}
}

// active holds the attached sinks; nil while span collection is off.
var active atomic.Pointer[[]Sink]

// Enabled reports whether a sink is attached. Instrumented code does not
// need it (nil spans are no-ops); it is for guarding expensive attribute
// computations that the lazy Stringer form cannot express.
func Enabled() bool { return active.Load() != nil }

// Attach installs the sinks and enables span collection, replacing any
// previous attachment. Attach with no sinks is Detach.
func Attach(sinks ...Sink) {
	if len(sinks) == 0 {
		Detach()
		return
	}
	active.Store(&sinks)
}

// Detach disables span collection. Roots still open keep the sinks they
// started under and drain into them when ended.
func Detach() { active.Store(nil) }

// spanKey carries the open *Span in a context.Context.
type spanKey struct{}

// Start opens a span whose parent is the span carried by ctx, and
// returns a context carrying the new span for the calls it wraps. The
// span inherits its parent's trace id; a root takes the id of ctx (see
// WithTraceID). While no sink is attached it returns ctx and a nil,
// no-op span after a single atomic load, allocating nothing.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	sinks := active.Load()
	if sinks == nil {
		return ctx, nil
	}
	s := &Span{Name: name, Began: time.Now()}
	if p, _ := ctx.Value(spanKey{}).(*Span); p != nil {
		s.parent, s.TraceID = p, p.TraceID
	} else {
		s.TraceID, s.sinks = TraceIDFrom(ctx), *sinks
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// Walk visits the span and every descendant depth-first, reporting each
// span's depth (the receiver is depth 0).
func (s *Span) Walk(visit func(sp *Span, depth int)) {
	if s == nil {
		return
	}
	var rec func(sp *Span, depth int)
	rec = func(sp *Span, depth int) {
		visit(sp, depth)
		for _, c := range sp.Children {
			rec(c, depth+1)
		}
	}
	rec(s, 0)
}
