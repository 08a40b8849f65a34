package ts

import (
	"fmt"
	"slices"
)

// RingMutex builds an n-station token-ring mutual exclusion protocol: a
// single token circulates; the holder may enter its critical section when
// its station wants in, and passes the token on when idle. passFair is
// the fairness attached to the pass transitions and reproduces the
// paper's justice/compassion separation at protocol scale: the holder's
// own enter/exit activity keeps de-enabling pass, so under Weak fairness
// a busy station can hold the token forever and starve the ring, while
// Strong fairness forces circulation and gives every station
// accessibility.
//
// Per station i: request_i (unfair) raises w_i; enter_i (weak) moves the
// wanting holder into its critical section; exit_i (weak) leaves it and
// clears w_i; pass_i (passFair) hands the token to station i+1 when the
// holder neither wants in nor is inside.
//
// Propositions: w<i> (station i wants in), c<i> (station i is in its
// critical section), t<i> (station i holds the token), busy (some station
// is in its critical section).
func RingMutex(n int, passFair Fairness) (*System, error) {
	if n < 2 || n > maxScenarioN {
		return nil, fmt.Errorf("ts: RingMutex size %d out of range [2, %d]", n, maxScenarioN)
	}
	type conf struct {
		tok  int8
		cs   bool
		want uint16 // bit i: station i wants in
	}
	name := func(c conf) string {
		cs := 0
		if c.cs {
			cs = 1
		}
		return fmt.Sprintf("t%d c%d w%03x", c.tok, cs, c.want)
	}
	// Bits: t<i> = i, c<i> = n+i, w<i> = 2n+i, busy = 3n.
	props := slices.Concat(indexed("t", n), indexed("c", n), indexed("w", n), []string{"busy"})
	label := func(c conf) uint64 {
		m := uint64(1)<<c.tok | uint64(c.want)<<(2*n)
		if c.cs {
			m |= 1<<(n+int(c.tok)) | 1<<(3*n)
		}
		return m
	}
	var trans []protoTransition[conf]
	for i := 0; i < n; i++ {
		i := i
		bit := uint16(1) << i
		trans = append(trans,
			protoTransition[conf]{fmt.Sprintf("request%d", i), Unfair, func(c conf) (conf, bool) {
				if c.want&bit != 0 || (c.cs && int(c.tok) == i) {
					return c, false
				}
				c.want |= bit
				return c, true
			}},
			protoTransition[conf]{fmt.Sprintf("enter%d", i), Weak, func(c conf) (conf, bool) {
				if int(c.tok) != i || c.want&bit == 0 || c.cs {
					return c, false
				}
				c.cs = true
				return c, true
			}},
			protoTransition[conf]{fmt.Sprintf("exit%d", i), Weak, func(c conf) (conf, bool) {
				if int(c.tok) != i || !c.cs {
					return c, false
				}
				c.cs = false
				c.want &^= bit
				return c, true
			}},
			protoTransition[conf]{fmt.Sprintf("pass%d", i), passFair, func(c conf) (conf, bool) {
				if int(c.tok) != i || c.cs || c.want&bit != 0 {
					return c, false
				}
				c.tok = int8((i + 1) % n)
				return c, true
			}},
		)
	}
	return buildReachable([]conf{{}}, props, label, name, trans)
}

// RingMutexSpecs returns known-verdict specifications of RingMutex(n,
// passFair): safety (mutual exclusion, the token guard), recurrence (the
// critical section always empties again), and the accessibility and
// token-circulation properties that hold exactly under strong pass
// fairness.
func RingMutexSpecs(n int, passFair Fairness) []ScenarioSpec {
	strong := passFair == Strong
	return []ScenarioSpec{
		{Formula: "G !(c0 & c1)", Holds: true},
		{Formula: "G (c0 -> w0)", Holds: true},
		{Formula: "G F !busy", Holds: true},
		{Formula: "F c0", Holds: false},
		{Formula: "G (w0 -> F c0)", Holds: strong},
		{Formula: "G F t0", Holds: strong},
	}
}
