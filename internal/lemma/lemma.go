// Package lemma validates the combinatorial heart of the paper's power
// proof (Lemmas 6 and 7) directly on executions.
//
// Lemma 7 states that, over the rounds of Phase 2, the control words any
// node receives from its parent form — restricted to the source component —
// either Q1 (a run of [null,*], then a run of [s,*], then a run of
// [null,*]) or Q2 (the complement), i.e. the "does this round use the
// upward link half?" boolean flips at most twice; and symmetrically for the
// destination component. Lemma 6 then turns the bounded flip count into the
// O(1) switch-change bound of Theorem 8.
//
// Monitor records every Phase 2 word via a padr.Observer and Verify checks
// the flip bound for every node and both components. This is a stronger
// check than metering the crossbars (which could in principle stay small by
// accident): it pins the exact sequence structure the proof names.
package lemma

import (
	"fmt"

	"cst/internal/ctrl"
	"cst/internal/padr"
	"cst/internal/topology"
)

// MaxFlips is the Lemma 7 bound on boolean transitions per component: a Q1
// or Q2 sequence has at most two.
const MaxFlips = 2

// Monitor records per-node control word sequences.
type Monitor struct {
	seq map[topology.Node][]ctrl.Use
}

// Observer returns padr callbacks that populate the monitor.
func (m *Monitor) Observer() padr.Observer {
	return padr.Observer{
		WordSent: func(_, child topology.Node, w ctrl.Down) {
			if m.seq == nil {
				m.seq = map[topology.Node][]ctrl.Use{}
			}
			m.seq[child] = append(m.seq[child], w.Use)
		},
	}
}

// Nodes returns how many nodes received at least one word.
func (m *Monitor) Nodes() int { return len(m.seq) }

// Sequence returns the recorded word sequence of one node.
func (m *Monitor) Sequence(n topology.Node) []ctrl.Use { return m.seq[n] }

// Flips counts the transitions of a boolean projection of a sequence.
func Flips(seq []ctrl.Use, project func(ctrl.Use) bool) int {
	flips := 0
	for i := 1; i < len(seq); i++ {
		if project(seq[i]) != project(seq[i-1]) {
			flips++
		}
	}
	return flips
}

// Verify checks the Lemma 7 flip bound for every recorded node, both for
// the source component (HasS) and the destination component (HasD).
func (m *Monitor) Verify() error {
	for node, seq := range m.seq {
		if f := Flips(seq, ctrl.Use.HasS); f > MaxFlips {
			return fmt.Errorf("lemma: node %d source component flips %d times (> %d): %v",
				node, f, MaxFlips, seq)
		}
		if f := Flips(seq, ctrl.Use.HasD); f > MaxFlips {
			return fmt.Errorf("lemma: node %d destination component flips %d times (> %d): %v",
				node, f, MaxFlips, seq)
		}
	}
	return nil
}
