// Package sched represents multi-round schedules of communication sets on
// the CST and verifies them independently of any scheduling algorithm.
//
// A round is a set of communications performed simultaneously; it is
// *compatible* when no two of its circuits use the same tree link in the
// same direction (paper §1, citing [3]). A schedule performs every
// communication of the input set in exactly one round. Theorem 5 states the
// paper's algorithm needs exactly `width` rounds; Verify checks
// compatibility and completeness against the topology alone, so an engine
// bug cannot hide behind its own bookkeeping.
package sched

import (
	"fmt"
	"slices"

	"cst/internal/comm"
	"cst/internal/topology"
)

// Schedule is the outcome of scheduling a communication set: Rounds[i] lists
// the communications performed in round i.
type Schedule struct {
	// Set is the scheduled communication set.
	Set *comm.Set
	// Rounds holds one compatible subset per round, in execution order.
	Rounds [][]comm.Comm
}

// NumRounds returns the number of rounds.
func (s *Schedule) NumRounds() int { return len(s.Rounds) }

// TotalScheduled returns the number of communications over all rounds.
func (s *Schedule) TotalScheduled() int {
	total := 0
	for _, r := range s.Rounds {
		total += len(r)
	}
	return total
}

// RoundSizes returns the per-round communication counts.
func (s *Schedule) RoundSizes() []int {
	sizes := make([]int, len(s.Rounds))
	for i, r := range s.Rounds {
		sizes[i] = len(r)
	}
	return sizes
}

// String renders one line per round, e.g. "round 0: 0->7 3->4".
func (s *Schedule) String() string {
	out := ""
	for i, r := range s.Rounds {
		out += fmt.Sprintf("round %d:", i)
		for _, c := range r {
			out += " " + c.String()
		}
		out += "\n"
	}
	return out
}

// Verify checks the schedule against the tree:
//
//  1. every round is compatible (no directed tree link used twice),
//  2. every communication of the set is scheduled exactly once,
//  3. no communication outside the set appears.
//
// It returns nil if and only if all three hold.
func (s *Schedule) Verify(t *topology.Tree) error {
	var v Verifier
	return v.Verify(t, s)
}

// Verifier is Schedule.Verify with scratch it keeps between calls, so a
// caller verifying schedule after schedule allocates nothing once the
// scratch has grown to its largest set and tree. The zero value is ready
// to use; a Verifier is not safe for concurrent use.
type Verifier struct {
	index comm.Index // the set: communication -> its index
	seen  []bool     // seen[i]: communication i of the set is scheduled
	used  []uint32   // used[e] == round: the round being checked holds link e
	round uint32     // the stamp of the round being checked, never reused
}

// Verify checks sch against t as Schedule.Verify does and returns the same
// error. When several communications are never scheduled it names the
// first in the set's order.
func (v *Verifier) Verify(t *topology.Tree, sch *Schedule) error {
	if sch.Set == nil {
		return fmt.Errorf("sched: schedule has no set")
	}
	if t.Leaves() != sch.Set.N {
		return fmt.Errorf("sched: tree has %d leaves, set has N=%d", t.Leaves(), sch.Set.N)
	}
	comms := sch.Set.Comms
	v.index.Reset(len(comms))
	for i, c := range comms {
		if _, dup := v.index.Insert(c, i); dup {
			return fmt.Errorf("sched: set contains duplicate communication %s", c)
		}
	}
	v.seen = slices.Grow(v.seen[:0], len(comms))[:len(comms)]
	clear(v.seen)
	if links := t.DirectedEdgeCount(); len(v.used) < links {
		v.used, v.round = make([]uint32, links), 0
	}
	for i, round := range sch.Rounds {
		if v.round++; v.round == 0 {
			clear(v.used)
			v.round = 1
		}
		for _, c := range round {
			k, ok := v.index.Find(c)
			if !ok {
				return fmt.Errorf("sched: round %d schedules %s, which is not in the set", i, c)
			}
			if v.seen[k] {
				return fmt.Errorf("sched: communication %s scheduled more than once (again in round %d)", c, i)
			}
			v.seen[k] = true
			// Report the first reused link in source-to-destination order.
			// EachPathEdge walks the down leg from the leaf up, so a later
			// reuse on that leg lies earlier on the path.
			var reused topology.Edge
			clash := false
			err := t.EachPathEdge(c.Src, c.Dst, func(e topology.Edge) {
				idx := t.EdgeIndex(e)
				if v.used[idx] == v.round && (!clash || reused.Dir == topology.Down) {
					reused, clash = e, true
				}
				v.used[idx] = v.round
			})
			if err != nil {
				return fmt.Errorf("sched: round %d: %v", i, err)
			}
			if clash {
				return fmt.Errorf("sched: round %d is incompatible: link %s used twice (by %s among others)", i, reused, c)
			}
		}
	}
	for i, c := range comms {
		if !v.seen[i] {
			return fmt.Errorf("sched: communication %s never scheduled", c)
		}
	}
	return nil
}

// VerifyOptimal runs Verify and additionally checks the round count equals
// the set's width (Theorem 5). Schedules from the greedy baseline on
// non-well-nested sets may legitimately fail only the second check.
func (s *Schedule) VerifyOptimal(t *topology.Tree) error {
	if err := s.Verify(t); err != nil {
		return err
	}
	w, err := s.Set.Width(t)
	if err != nil {
		return err
	}
	if s.NumRounds() != w {
		return fmt.Errorf("sched: %d rounds for a width-%d set (optimal is exactly the width)", s.NumRounds(), w)
	}
	return nil
}
