// Command philosophers runs the dining-philosophers case study: one
// system, three specification strengths from three classes of the
// hierarchy, and the protocol/fairness combinations that separate them.
//
//	safety      (□¬(eᵢ∧eᵢ₊₁))                  — holds always
//	recurrence  (global progress)               — needs the asymmetric protocol
//	recurrence  (individual accessibility)      — additionally needs compassion
package main

import (
	"fmt"
	"log"

	temporal "repro"
	"repro/internal/ts"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	specs := []struct {
		name string
		f    temporal.Formula
	}{
		{"neighbour exclusion", temporal.MustParseFormula("G !(e0 & e1)")},
		{"global progress", temporal.MustParseFormula("G F (e0 | e1 | e2) | F G (t0 & t1 & t2)")},
		{"phil 0 never starves", temporal.MustParseFormula("G (h0 -> F e0)")},
	}
	for _, s := range specs {
		c, err := temporal.Classify(s.f)
		if err != nil {
			return err
		}
		fmt.Printf("spec %-22s %-40v class %v\n", s.name, s.f, c.Lowest())
	}
	fmt.Println()

	variants := []struct {
		label     string
		symmetric bool
		fair      temporal.Fairness
	}{
		{"symmetric,  weak pickup", true, temporal.Weak},
		{"symmetric,  strong pickup", true, temporal.Strong},
		{"asymmetric, weak pickup", false, temporal.Weak},
		{"asymmetric, strong pickup", false, temporal.Strong},
	}
	fmt.Printf("%-28s %-10s %-10s %-10s\n", "variant (3 philosophers)", "exclusion", "progress", "no-starve")
	for _, v := range variants {
		sys, err := ts.DiningPhilosophers(3, v.symmetric, v.fair)
		if err != nil {
			return err
		}
		row := make([]bool, len(specs))
		for i, s := range specs {
			res, err := temporal.Check(temporal.CheckRequest{Kind: temporal.CheckVerify, System: sys, Formula: s.f})
			if err != nil {
				return err
			}
			row[i] = res.Holds
		}
		fmt.Printf("%-28s %-10v %-10v %-10v\n", v.label, row[0], row[1], row[2])
	}
	fmt.Println()

	// Show the deadlock witness of the symmetric protocol.
	noStarve := specs[2].f
	sym, err := ts.DiningPhilosophers(3, true, temporal.Strong)
	if err != nil {
		return err
	}
	res, err := temporal.Check(temporal.CheckRequest{Kind: temporal.CheckVerify, System: sym, Formula: noStarve})
	if err != nil {
		return err
	}
	if !res.Holds {
		pre, loop := res.Counterexample.Names(sym)
		fmt.Printf("symmetric deadlock scenario: %v then (%v)^ω\n", pre, loop)
		fmt.Println("(t=thinking, h=hungry, l=holding first fork, e=eating;")
		fmt.Println(" the lll loop is the circular wait — only idling remains)")
	}

	// And a starvation witness for weak fairness in the asymmetric ring.
	weak, err := ts.DiningPhilosophers(3, false, temporal.Weak)
	if err != nil {
		return err
	}
	res, err = temporal.Check(temporal.CheckRequest{Kind: temporal.CheckVerify, System: weak, Formula: noStarve})
	if err != nil {
		return err
	}
	if !res.Holds {
		pre, loop := res.Counterexample.Names(weak)
		fmt.Printf("\nweak-fairness starvation of philosopher 0: %v then (%v)^ω\n", pre, loop)
		fmt.Println("(the neighbours alternate; philosopher 0's fork is never")
		fmt.Println(" continuously available, so justice demands nothing — the")
		fmt.Println(" compassion requirement □◇enabled → □◇taken is what rules")
		fmt.Println(" this conspiracy out)")
	}
	return nil
}
