package ts

import "fmt"

// LeaderElection builds a Chang–Roberts-style leader election on a
// unidirectional ring of n nodes with distinct identities 0..n-1. Each
// link carries at most one message and merges by maximum (a smaller
// in-flight identity is absorbed by a larger one), which keeps the state
// space finite without losing the winning identity. A candidate may
// inject its own identity once; a node receiving a larger identity turns
// passive and forwards it, a smaller one is discarded, and its own
// identity returning elects it.
//
// Per node i: init_i (weak) injects identity i onto link i once while i
// is still a candidate; deliver_i (weak) consumes the message on link i
// at node i+1. Weak fairness on both is enough for progress: an
// undelivered message keeps deliver enabled, so on every fair computation
// the maximal identity survives all merges and discards, circulates the
// whole ring, and elects node n-1 — and no other node is ever elected.
//
// Propositions: cand<i>, passive<i>, leader<i> (node i's status),
// elected (some node is a leader).
func LeaderElection(n int) (*System, error) {
	if n < 2 || n > maxScenarioN {
		return nil, fmt.Errorf("ts: LeaderElection size %d out of range [2, %d]", n, maxScenarioN)
	}
	const (
		cand int8 = iota
		passive
		leader
	)
	type conf struct {
		status [maxScenarioN]int8
		sent   uint16             // bit i: node i already injected its identity
		buf    [maxScenarioN]int8 // message on link i→i+1; -1 = empty
	}
	init := conf{}
	for i := range init.buf {
		init.buf[i] = -1
	}
	name := func(c conf) string {
		return fmt.Sprintf("s%v i%03x b%v", c.status[:n], c.sent, c.buf[:n])
	}
	cp, pp, lp := indexed("cand", n), indexed("passive", n), indexed("leader", n)
	props := func(c conf) []string {
		var out []string
		for i := 0; i < n; i++ {
			switch c.status[i] {
			case cand:
				out = append(out, cp[i])
			case passive:
				out = append(out, pp[i])
			case leader:
				out = append(out, lp[i], "elected")
			}
		}
		return out
	}
	var trans []protoTransition[conf]
	for i := 0; i < n; i++ {
		i := i
		bit := uint16(1) << i
		trans = append(trans,
			protoTransition[conf]{fmt.Sprintf("init%d", i), Weak, func(c conf) (conf, bool) {
				if c.status[i] != cand || c.sent&bit != 0 {
					return c, false
				}
				c.sent |= bit
				if int8(i) > c.buf[i] {
					c.buf[i] = int8(i)
				}
				return c, true
			}},
			protoTransition[conf]{fmt.Sprintf("deliver%d", i), Weak, func(c conf) (conf, bool) {
				m := c.buf[i]
				if m < 0 {
					return c, false
				}
				c.buf[i] = -1
				j := (i + 1) % n
				switch {
				case int(m) == j:
					c.status[j] = leader
				case int(m) > j:
					c.status[j] = passive
					if m > c.buf[j] {
						c.buf[j] = m
					}
				}
				return c, true
			}},
		)
	}
	return buildReachable([]conf{init}, name, props, trans)
}

// LeaderElectionSpecs returns known-verdict specifications of
// LeaderElection(n): the maximal node is eventually elected on every fair
// computation, leadership is unique and stable, node 0 is never elected
// and eventually turns passive.
func LeaderElectionSpecs(n int) []ScenarioSpec {
	max := n - 1
	return []ScenarioSpec{
		{Formula: fmt.Sprintf("F leader%d", max), Holds: true},
		{Formula: fmt.Sprintf("G (leader%d -> G leader%d)", max, max), Holds: true},
		{Formula: fmt.Sprintf("G !(leader0 & leader%d)", max), Holds: true},
		{Formula: "F leader0", Holds: false},
		{Formula: "F passive0", Holds: true},
		{Formula: "G (elected -> G elected)", Holds: true},
	}
}
