package temporal

import (
	"context"

	"repro/internal/engine"
	"repro/internal/plan"
)

// The unified query API (PR 7). Check runs containment, equivalence,
// emptiness and model-checking queries through the engine's
// hierarchy-aware planner: operands are probed for their class, a
// class-specialized decision procedure answers when one is sound, and
// the general lazy Streett path remains the always-correct fallback.
// The Verdict reports the answer together with its provenance — plan
// tier, reason, cost counters, cache/fallback flags.
type (
	// CheckRequest is a planner-backed query; see engine.CheckRequest.
	CheckRequest = engine.CheckRequest
	// CheckKind selects the decision problem of a CheckRequest.
	CheckKind = engine.CheckKind
	// Verdict is a Check result with plan provenance.
	Verdict = engine.Verdict
	// PlanTier identifies the decision procedure that answered a query.
	PlanTier = plan.Tier
	// PlanProbe is the planner's class evidence about one automaton.
	PlanProbe = plan.Probe
	// PlanDecision is a chosen tier plus the reason it is sound.
	PlanDecision = plan.Decision
	// PlanCost counts the work a specialized procedure did.
	PlanCost = plan.Cost
)

// The query kinds.
const (
	CheckContains   = engine.CheckContains
	CheckEquivalent = engine.CheckEquivalent
	CheckEmptiness  = engine.CheckEmptiness
	CheckVerify     = engine.CheckVerify
)

// The plan tiers, cheapest-first below the general path.
const (
	TierStreett     = plan.TierStreett
	TierSafety      = plan.TierSafety
	TierGuarantee   = plan.TierGuarantee
	TierObligation  = plan.TierObligation
	TierRecurrence  = plan.TierRecurrence
	TierPersistence = plan.TierPersistence
)

// Check runs one planned query on the default engine. It is the
// convenience form of Engine.Check; use CheckCtx for cancellation.
func Check(req CheckRequest) (Verdict, error) {
	return defaultEngine.Check(context.Background(), req)
}

// CheckCtx is Check with cooperative cancellation and budgeting.
func CheckCtx(ctx context.Context, req CheckRequest) (Verdict, error) {
	return defaultEngine.Check(ctx, req)
}

// PlanAutomaton probes the automaton on the default engine and reports
// which tier its queries land in and why — the library form of
// speccheck -explain. The probe is memoized per structural key.
func PlanAutomaton(a *Automaton) (PlanProbe, PlanDecision, error) {
	return defaultEngine.PlanAutomaton(context.Background(), a)
}

// PlanAutomatonCtx is PlanAutomaton with cooperative cancellation.
func PlanAutomatonCtx(ctx context.Context, a *Automaton) (PlanProbe, PlanDecision, error) {
	return defaultEngine.PlanAutomaton(ctx, a)
}

// PlanOfClass maps a syntactic hierarchy class to the tier a compiled
// formula of that class is guaranteed to land in (Figure 1).
func PlanOfClass(c Class) PlanDecision { return plan.DecideClass(c) }
