package ts

import (
	"fmt"
	"slices"
)

// CacheCoherence builds an MSI-style cache-coherence protocol over n
// caches sharing one line. Each cache is Invalid, Shared or Modified and
// may have one outstanding read or write request; granting a write
// invalidates every other cache, granting a read downgrades a Modified
// holder to Shared. The family is the coherence-protocol workload the
// search benchmarks lean on: its reachable space grows
// geometrically in n while the single-writer invariant stays easy to
// state.
//
// Per cache i: readReq_i / writeReq_i (unfair) post a request; grantS_i /
// grantM_i (weak) serve it — a posted request disables nothing else that
// could clear it, so weak fairness alone guarantees service; evict_i
// (unfair) silently drops a quiescent non-Invalid line.
//
// Propositions: i<j>, s<j>, m<j> (cache j's state), rd<j>, wr<j> (cache
// j's outstanding request).
func CacheCoherence(n int) (*System, error) {
	if n < 2 || n > maxScenarioN {
		return nil, fmt.Errorf("ts: CacheCoherence size %d out of range [2, %d]", n, maxScenarioN)
	}
	const (
		inv int8 = iota
		shared
		modified
	)
	const (
		none int8 = iota
		read
		write
	)
	type conf struct {
		st   [maxScenarioN]int8
		want [maxScenarioN]int8
	}
	name := func(c conf) string {
		return fmt.Sprintf("s%v w%v", c.st[:n], c.want[:n])
	}
	// Bits: i<j> = j, s<j> = n+j, m<j> = 2n+j, rd<j> = 3n+j, wr<j> = 4n+j.
	props := slices.Concat(indexed("i", n), indexed("s", n), indexed("m", n), indexed("rd", n), indexed("wr", n))
	label := func(c conf) uint64 {
		var m uint64
		for i := 0; i < n; i++ {
			m |= 1 << (int(c.st[i])*n + i) // inv, shared, modified = 0, 1, 2
			if c.want[i] != none {
				m |= 1 << ((2+int(c.want[i]))*n + i) // read, write = 1, 2
			}
		}
		return m
	}
	var trans []protoTransition[conf]
	for i := 0; i < n; i++ {
		i := i
		trans = append(trans,
			protoTransition[conf]{fmt.Sprintf("readReq%d", i), Unfair, func(c conf) (conf, bool) {
				if c.st[i] != inv || c.want[i] != none {
					return c, false
				}
				c.want[i] = read
				return c, true
			}},
			protoTransition[conf]{fmt.Sprintf("writeReq%d", i), Unfair, func(c conf) (conf, bool) {
				if c.st[i] == modified || c.want[i] != none {
					return c, false
				}
				c.want[i] = write
				return c, true
			}},
			protoTransition[conf]{fmt.Sprintf("grantS%d", i), Weak, func(c conf) (conf, bool) {
				if c.want[i] != read {
					return c, false
				}
				for j := 0; j < n; j++ {
					if c.st[j] == modified {
						c.st[j] = shared
					}
				}
				c.st[i] = shared
				c.want[i] = none
				return c, true
			}},
			protoTransition[conf]{fmt.Sprintf("grantM%d", i), Weak, func(c conf) (conf, bool) {
				if c.want[i] != write {
					return c, false
				}
				for j := 0; j < n; j++ {
					c.st[j] = inv
				}
				c.st[i] = modified
				c.want[i] = none
				return c, true
			}},
			protoTransition[conf]{fmt.Sprintf("evict%d", i), Unfair, func(c conf) (conf, bool) {
				if c.st[i] == inv || c.want[i] != none {
					return c, false
				}
				c.st[i] = inv
				return c, true
			}},
		)
	}
	return buildReachable([]conf{{}}, props, label, name, trans)
}

// CacheCoherenceSpecs returns known-verdict specifications of
// CacheCoherence(n): single-writer safety, request-service response
// properties that hold under weak fairness alone, and the persistence/
// recurrence properties an adversarial (but fair) scheduler can defeat.
func CacheCoherenceSpecs(n int) []ScenarioSpec {
	return []ScenarioSpec{
		{Formula: "G !(m0 & m1)", Holds: true},
		{Formula: "G (m0 -> !s1)", Holds: true},
		{Formula: "G (wr0 -> F m0)", Holds: true},
		{Formula: "G (rd0 -> F s0)", Holds: true},
		{Formula: "F G i0", Holds: false},
		{Formula: "G F i0", Holds: false},
	}
}
