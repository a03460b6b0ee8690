package hybrid

import (
	"testing"

	"cst/internal/comm"
	"cst/internal/power"
	"cst/internal/topology"
)

// FuzzHybridSchedule feeds raw byte pairs to the planner as communication
// endpoints, under an exact budget the second argument picks (small ones
// run out; the top bit picks stateless billing). Every input goes both to
// a one-shot Schedule and to one Scheduler reused across the whole run,
// which must give the same error or the same plan: every Plan field, the
// schedule and every switch's bill. Invalid sets (role clashes, self
// loops) must be rejected with an error; every accepted set must yield a
// schedule that verifies against the topology and books each PE into at
// most one communication per round, with the set's width, the joint
// first-fit as its comparator and bound, and — unless Exact ran out of
// budget — no more rounds than FirstFit on the Decompose halves, which
// general.FirstFit computes. A one-orientation well-nested set must plan
// in exactly its width.
func FuzzHybridSchedule(f *testing.F) {
	f.Add([]byte{0, 5, 3, 8, 12, 6, 14, 9}, uint8(1))
	f.Add([]byte{0, 8, 1, 9, 2, 10, 3, 11}, uint8(2))
	f.Add([]byte{15, 0, 7, 3, 2, 12}, uint8(1))
	f.Add([]byte{10, 15, 14, 1, 12, 9, 6, 2, 8, 11, 3, 4, 0, 13, 7, 5}, uint8(0))
	f.Add([]byte{0, 3, 1, 2, 4, 4}, uint8(129))
	f.Add([]byte{12, 3, 10, 5, 15, 13}, uint8(3))
	f.Add([]byte{}, uint8(1))
	const n = 16
	tree := topology.MustNew(n)
	var sc Scheduler
	f.Fuzz(func(t *testing.T, pairs []byte, budget uint8) {
		s := &comm.Set{N: n}
		for i := 0; i+1 < len(pairs) && len(s.Comms) < n/2; i += 2 {
			s.Comms = append(s.Comms, comm.Comm{
				Src: int(pairs[i]) % n, Dst: int(pairs[i+1]) % n,
			})
		}
		opts := []Option{WithExactBudget(1 + int(budget%128)*40), WithMode(power.Mode(budget / 128))}
		plan, err := Schedule(tree, s, opts...)
		if got, want := renderPlan(sc.Schedule(tree, s, opts...)), renderPlan(plan, err); got != want {
			t.Fatalf("set %v: reused Scheduler\n%s\none-shot Schedule\n%s", s.Comms, got, want)
		}
		if s.Validate() != nil {
			if err == nil {
				t.Fatalf("invalid set %v accepted", s.Comms)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid set %v rejected: %v", s.Comms, err)
		}
		if err := plan.Schedule.Verify(tree); err != nil {
			t.Fatalf("set %v: %v", s.Comms, err)
		}
		if w, err := s.Width(tree); err != nil || plan.Width != w {
			t.Fatalf("set %v: plan width %d, set width %d (%v)", s.Comms, plan.Width, w, err)
		}
		if ff := jointFirstFit(t, tree, s); plan.FirstFitRounds != ff || plan.Bound != ff {
			t.Fatalf("set %v: first-fit comparator %d, bound %d, joint first-fit %d",
				s.Comms, plan.FirstFitRounds, plan.Bound, ff)
		}
		if plan.Rounds < plan.Width || plan.Rounds > plan.Bound {
			t.Fatalf("set %v: %d rounds outside [width %d, bound %d]", s.Comms, plan.Rounds, plan.Width, plan.Bound)
		}
		if ff := ffComposite(t, tree, s); plan.Rounds > ff && !plan.Exhausted {
			t.Fatalf("set %v: %d rounds exceed FirstFit on the halves %d", s.Comms, plan.Rounds, ff)
		}
		// The paper's inputs, in either orientation, plan in exactly their
		// width, first-fit alone (DESIGN.md §6b).
		if (s.IsWellNested() || s.Mirror().IsWellNested()) && (plan.Rounds != plan.Width || plan.Bound != plan.Width) {
			t.Fatalf("one-orientation well-nested set %v: %d rounds, bound %d, width %d", s.Comms, plan.Rounds, plan.Bound, plan.Width)
		}
		// No PE double-booking: within one round every PE appears in at
		// most one communication, in either role. (Verify checks link
		// congestion; this is the endpoint-level claim on top.)
		for ri, round := range plan.Schedule.Rounds {
			seen := make(map[int]bool, 2*len(round))
			for _, c := range round {
				if seen[c.Src] || seen[c.Dst] {
					t.Fatalf("set %v: PE double-booked in round %d: %v", s.Comms, ri, round)
				}
				seen[c.Src], seen[c.Dst] = true, true
			}
		}
	})
}
