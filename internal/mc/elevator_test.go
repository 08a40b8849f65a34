package mc_test

import (
	"testing"

	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/ts"
)

// The elevator case study: a nearest-call policy starves the far floor
// while the SCAN policy serves every call — the specification is a plain
// response (recurrence) property per floor.
func TestElevatorSafety(t *testing.T) {
	for _, pol := range []ts.ElevatorPolicy{ts.Nearest, ts.Scan} {
		sys, err := ts.Elevator(pol)
		if err != nil {
			t.Fatal(err)
		}
		// The door always closes again (no propping).
		res, err := mc.Verify(sys, ltl.MustParse("G (open -> F !open)"))
		if err != nil || !res.Holds {
			t.Errorf("%v: door-closes property failed (%v, %v)", pol, res.Holds, err)
		}
		// A pending call stays pending until served at its floor.
		res, err = mc.Verify(sys, ltl.MustParse("G (call0 -> (call0 W (at0 & open)))"))
		if err != nil || !res.Holds {
			t.Errorf("%v: call persistence failed (%v, %v)", pol, res.Holds, err)
		}
	}
}

func TestElevatorNearestStarves(t *testing.T) {
	sys, err := ts.Elevator(ts.Nearest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.Verify(sys, ltl.MustParse("G (call0 -> F (at0 & open))"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("nearest policy should starve floor 0")
	}
	// The starvation loop must keep call0 pending and shuttle between the
	// upper floors.
	for _, s := range res.Counterexample.Loop {
		if !sys.Holds(s, "call0") {
			t.Fatalf("starvation loop dropped call0 at %q", sys.StateName(s))
		}
		if sys.Holds(s, "at0") {
			t.Fatalf("starvation loop visits floor 0 at %q", sys.StateName(s))
		}
	}

	// The nearer floors are served fine.
	for _, f := range []string{"G (call1 -> F (at1 & open))", "G (call2 -> F (at2 & open))"} {
		res, err := mc.Verify(sys, ltl.MustParse(f))
		if err != nil || !res.Holds {
			t.Errorf("nearest: %s should hold (%v, %v)", f, res.Holds, err)
		}
	}
}

func TestElevatorScanServesAll(t *testing.T) {
	sys, err := ts.Elevator(ts.Scan)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{
		"G (call0 -> F (at0 & open))",
		"G (call1 -> F (at1 & open))",
		"G (call2 -> F (at2 & open))",
	} {
		res, err := mc.Verify(sys, ltl.MustParse(f))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Holds {
			pre, loop := res.Counterexample.Names(sys)
			t.Errorf("scan: %s violated: %v (%v)^ω", f, pre, loop)
		}
	}
}

// TestElevatorScanCertificate: the SCAN service guarantee is provable
// with the justice chain rule.
func TestElevatorScanCertificate(t *testing.T) {
	sys, err := ts.Elevator(ts.Scan)
	if err != nil {
		t.Fatal(err)
	}
	trigger := ltl.MustParse("call0")
	goal := ltl.MustParse("at0 & open")
	cert, err := mc.SynthesizeResponse(sys, trigger, goal)
	if err != nil {
		t.Fatalf("SCAN service should be certifiable under justice: %v", err)
	}
	if err := cert.Validate(sys, trigger, goal); err != nil {
		t.Fatalf("certificate invalid: %v", err)
	}
}

func TestElevatorPolicyString(t *testing.T) {
	if ts.Nearest.String() == "" || ts.Scan.String() == "" || ts.ElevatorPolicy(9).String() == "" {
		t.Error("policy names must print")
	}
}
