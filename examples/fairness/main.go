// Command fairness reproduces the paper's weak/strong fairness discussion
// (§4): weak fairness (justice) is a recurrence property, strong fairness
// (compassion) a simple reactivity property, and the two are separated by
// a semaphore-based mutex — under justice alone a waiting process can
// starve, under compassion it cannot.
package main

import (
	"fmt"
	"log"

	temporal "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The fairness requirements as formulas, classified.
	weakFair := temporal.MustParseFormula("G F (!enabled | taken)")
	strongFair := temporal.MustParseFormula("G F enabled -> G F taken")
	for name, f := range map[string]temporal.Formula{
		"weak fairness (justice)      ": weakFair,
		"strong fairness (compassion) ": strongFair,
	} {
		c, err := temporal.Classify(f)
		if err != nil {
			return err
		}
		fmt.Printf("%s %-28v class: %v (reactivity rank %d)\n", name, f, c.Lowest(), c.ReactivityRank)
	}
	fmt.Println()

	access := temporal.MustParseFormula("G (w1 -> F c1)")

	// Semaphore mutex with weakly fair acquisition: starvation.
	weakSys, err := temporal.Semaphore(temporal.Weak)
	if err != nil {
		return err
	}
	res, err := temporal.Check(temporal.CheckRequest{Kind: temporal.CheckVerify, System: weakSys, Formula: access})
	if err != nil {
		return err
	}
	fmt.Printf("semaphore + weak-fair acquire  ⊨ G(w1 -> F c1): %v\n", res.Holds)
	if !res.Holds {
		pre, loop := res.Counterexample.Names(weakSys)
		fmt.Printf("  starvation scenario: %v then repeat %v forever\n", pre, loop)
		fmt.Println("  (process 2 monopolizes the semaphore; acquire1 is never")
		fmt.Println("   continuously enabled, so justice demands nothing)")
	}
	fmt.Println()

	// The same system with strongly fair acquisition: accessibility.
	strongSys, err := temporal.Semaphore(temporal.Strong)
	if err != nil {
		return err
	}
	res, err = temporal.Check(temporal.CheckRequest{Kind: temporal.CheckVerify, System: strongSys, Formula: access})
	if err != nil {
		return err
	}
	fmt.Printf("semaphore + strong-fair acquire ⊨ G(w1 -> F c1): %v\n", res.Holds)
	fmt.Println("  (acquire1 is enabled infinitely often — whenever the semaphore")
	fmt.Println("   is released — so compassion forces it to fire)")
	fmt.Println()

	// Both variants keep the safety half.
	mutex := temporal.MustParseFormula("G !(c1 & c2)")
	for name, sys := range map[string]*temporal.System{
		"weak":   weakSys,
		"strong": strongSys,
	} {
		res, err := temporal.Check(temporal.CheckRequest{Kind: temporal.CheckVerify, System: sys, Formula: mutex})
		if err != nil {
			return err
		}
		fmt.Printf("semaphore (%s) ⊨ G!(c1&c2): %v\n", name, res.Holds)
	}
	return nil
}
