package engine

import (
	"context"
	"errors"

	"repro/internal/budget"
	"repro/internal/obs"
)

// serve runs one exported entry point's request under the engine's
// request envelope, applying in order: withBudget (a fresh request budget
// when caps are configured and the caller attached none), startRequest
// (the traced "engine.request" span), capture (the recovery boundary
// turning a panic into an *InternalError carrying op), the span's
// cost/outcome stamp, and wrapErr. A failed request returns T's zero
// value. serve is startRequest's only caller and entries compose the
// unexported cores, never each other, so every request opens exactly one
// envelope.
func serve[T any](e *Engine, ctx context.Context, op string, fn func(context.Context) (T, error)) (T, error) {
	ctx = e.withBudget(ctx)
	ctx, done := e.startRequest(ctx, op)
	var v T
	err := capture(op, func() (err error) {
		v, err = fn(ctx)
		return
	})
	done(&err)
	if err != nil {
		var zero T
		return zero, wrapErr(err)
	}
	return v, nil
}

// noFinish is the disabled-path finisher, shared so the no-op case does
// not allocate a closure.
var noFinish = func(*error) {}

// traced reports whether a request is traced — a sink is attached or the
// caller already attached a trace id — and for a traced request returns
// ctx carrying a trace id, minting one for requests that arrive without
// (CLI calls; the daemon mints its own at the HTTP boundary). While no
// sink is attached and no trace id rides the context, ctx is returned
// unchanged, preserving the obs layer's free-when-off contract for
// library users.
func traced(ctx context.Context) (context.Context, bool) {
	if !obs.Enabled() && obs.TraceIDFrom(ctx) == "" {
		return ctx, false
	}
	ctx, _ = obs.EnsureTraceID(ctx)
	return ctx, true
}

// startRequest opens the request-scoped observability envelope of a
// traced request: an "engine.request" span, a root unless the context
// already carries a span (a Batch item's envelope nests under
// "engine.batch"), under which every stage span of the request nests and
// inherits the trace id. The returned finish must be called with the
// operation's error address once the request completes; it stamps what
// the request actually cost — budget states/steps spent — and how it
// ended (ok, canceled, budget, panic) before closing the span. An
// untraced request skips the whole envelope.
func (e *Engine) startRequest(ctx context.Context, op string) (context.Context, func(*error)) {
	ctx, ok := traced(ctx)
	if !ok {
		return ctx, noFinish
	}
	ctx, sp := obs.Start(ctx, "engine.request")
	sp.Str("op", op)
	reqCtx := ctx
	return ctx, func(errp *error) {
		if b := budget.FromContext(reqCtx); b != nil {
			sp.Int64("budget.states", b.States()).Int64("budget.steps", b.Steps())
		}
		if errp != nil && *errp != nil {
			sp.Str("outcome", errClass(*errp))
		}
		sp.End()
	}
}

// errClass buckets a request error for span attribution and the
// daemon's labeled response counters; the classes are closed and
// low-cardinality by construction.
func errClass(err error) string {
	var ierr *InternalError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	case errors.Is(err, budget.ErrBudgetExceeded):
		return "budget_exceeded"
	case errors.As(err, &ierr):
		return "internal_panic"
	default:
		return "error"
	}
}
