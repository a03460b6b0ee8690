// Package circuit establishes whole source→destination circuits on CST
// switches, the way a centralized controller would (one connection per
// switch on the path). The PADR engine configures switches from local
// control words instead and takes only its crossbar layout (NewSwitches)
// from here; the baselines, the hybrid replay, the harness and
// general.MinChangeSchedule configure whole circuits.
package circuit

import (
	"fmt"

	"cst/internal/comm"
	"cst/internal/topology"
	"cst/internal/xbar"
)

// RoundConfig is a snapshot of every switch's configuration during one
// round.
type RoundConfig map[topology.Node]xbar.Config

// childSide returns which side of parent the node child hangs on.
func childSide(t *topology.Tree, child topology.Node) xbar.Side {
	if t.IsLeftChild(child) {
		return xbar.L
	}
	return xbar.R
}

// NewSwitches returns a fresh crossbar for every switch of t in the one
// layout every engine shares: a slice indexed by node (entry 0 unused) over
// a single backing array, so a tree's crossbars cost two allocations.
func NewSwitches(t *topology.Tree) []*xbar.Switch {
	xbars := make([]xbar.Switch, t.Leaves())
	switches := make([]*xbar.Switch, t.Leaves())
	t.EachSwitch(func(n topology.Node) { switches[n] = &xbars[n] })
	return switches
}

// ResetSwitches returns crossbars for t in NewSwitches's layout, every one
// in factory state (configuration and meters), reusing switches, an
// earlier result of ResetSwitches or NewSwitches for any tree, when it has
// room for t's.
func ResetSwitches(t *topology.Tree, switches []*xbar.Switch) []*xbar.Switch {
	if cap(switches) < t.Leaves() {
		return NewSwitches(t)
	}
	switches = switches[:t.Leaves()]
	t.EachSwitch(func(n topology.Node) { switches[n].Zero() })
	return switches
}

// Configure establishes the circuit for one right-oriented communication:
// child-side→parent connections up to the LCA, a left→right turn at the
// LCA, and parent→child-side connections down to the destination leaf.
// switches is indexed by node (see NewSwitches).
func Configure(t *topology.Tree, switches []*xbar.Switch, c comm.Comm) error {
	if !c.RightOriented() {
		return fmt.Errorf("circuit: %s is not right oriented", c)
	}
	return ConfigureAny(t, switches, c)
}

// ConfigureAny is Configure for either orientation: a left-oriented
// communication turns right→left at its LCA instead. The hybrid planner
// needs this: its rounds mix orientations, and all of them are billed on
// one set of physical switches.
func ConfigureAny(t *topology.Tree, switches []*xbar.Switch, c comm.Comm) error {
	if c.Src == c.Dst {
		return fmt.Errorf("circuit: %s is a self loop", c)
	}
	if c.Src < 0 || c.Dst < 0 || c.Src >= t.Leaves() || c.Dst >= t.Leaves() {
		return fmt.Errorf("circuit: %s out of range for N=%d", c, t.Leaves())
	}
	lca := t.LCA(c.Src, c.Dst)
	connect := func(u topology.Node, in, out xbar.Side) error {
		if int(u) >= len(switches) || switches[u] == nil {
			return fmt.Errorf("circuit: no switch at node %d", u)
		}
		return switches[u].Connect(in, out)
	}

	// Upward leg: at every switch strictly below the LCA on the source
	// side, data enters from the child we came from and leaves toward the
	// parent.
	for child := t.Leaf(c.Src); t.Parent(child) != lca; child = t.Parent(child) {
		u := t.Parent(child)
		if err := connect(u, childSide(t, child), xbar.P); err != nil {
			return fmt.Errorf("circuit: %s at switch %d: %v", c, u, err)
		}
	}

	// The turn at the LCA: the source is in the left subtree and the
	// destination in the right subtree for a right-oriented pair.
	turnIn, turnOut := xbar.L, xbar.R
	if !c.RightOriented() {
		turnIn, turnOut = xbar.R, xbar.L
	}
	if err := connect(lca, turnIn, turnOut); err != nil {
		return fmt.Errorf("circuit: %s at lca %d: %v", c, lca, err)
	}

	// Downward leg, from the LCA's child toward the destination leaf: the
	// node k levels above the leaf is dst>>k, and each switch passes parent
	// data toward the child one level further down.
	dst := t.Leaf(c.Dst)
	for k := t.Depth(dst) - t.Depth(lca) - 1; k >= 1; k-- {
		u, child := dst>>k, dst>>(k-1)
		if err := connect(u, xbar.P, childSide(t, child)); err != nil {
			return fmt.Errorf("circuit: %s at switch %d: %v", c, u, err)
		}
	}
	return nil
}
