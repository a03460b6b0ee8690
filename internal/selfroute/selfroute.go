// Package selfroute implements the CST's historical baseline routing: the
// self-routing scheme of Sidhu et al. [7], which configures the switches
// for ONE communication by letting a header carrying the destination
// address steer itself through the tree, and its extension to *disjoint*
// communication sets [3] (El-Boghdadi et al., RAW 2002) — two
// communications are disjoint when they share no tree link even in opposite
// directions, so any number of disjoint communications self-route
// simultaneously.
//
// This is the capability the paper's algorithm supersedes: self-routing
// needs no precomputation but handles only disjoint sets (and therefore
// only one round of width-1 traffic), while CSA's Phase 1 counters let it
// schedule any well-nested set in `width` rounds. Self-routing handles both
// orientations natively — a useful contrast with the oriented scheduler.
package selfroute

import (
	"fmt"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/power"
	"cst/internal/topology"
	"cst/internal/xbar"
)

// Header is the routing information a source injects: just the destination
// PE, exactly what [7]'s self-routing switches compare against their
// subtree span.
type Header struct {
	Dst int
}

// Route configures the circuit for one communication of either orientation
// by walking the header up the tree: every switch forwards upward while the
// destination lies outside its subtree, turns at the LCA, and steers
// downward by comparing the destination with its children's spans.
// switches is indexed by node (see circuit.NewSwitches). Returns the number
// of switches configured.
func Route(t *topology.Tree, switches []*xbar.Switch, c comm.Comm) (int, error) {
	if c.Src == c.Dst || c.Src < 0 || c.Src >= t.Leaves() || c.Dst < 0 || c.Dst >= t.Leaves() {
		return 0, fmt.Errorf("selfroute: bad communication %s", c)
	}
	hdr := Header{Dst: c.Dst}
	hops := 0
	connect := func(u topology.Node, in, out xbar.Side) error {
		if int(u) >= len(switches) || switches[u] == nil {
			return fmt.Errorf("selfroute: no switch at node %d", u)
		}
		sw := switches[u]
		if err := sw.Connect(in, out); err != nil {
			return err
		}
		hops++
		return nil
	}
	side := func(child topology.Node) xbar.Side {
		if t.IsLeftChild(child) {
			return xbar.L
		}
		return xbar.R
	}

	// Upward: the header climbs until the destination is inside the
	// current switch's subtree.
	node := t.Leaf(c.Src)
	for {
		u := t.Parent(node)
		if u == 0 {
			return 0, fmt.Errorf("selfroute: header for %s escaped the root", c)
		}
		if t.Contains(u, hdr.Dst) {
			// The LCA: turn from the source side toward the destination
			// side.
			srcSide := side(node)
			dstSide := xbar.L
			if t.Contains(t.Right(u), hdr.Dst) {
				dstSide = xbar.R
			}
			if err := connect(u, srcSide, dstSide); err != nil {
				return 0, err
			}
			node = t.Left(u)
			if dstSide == xbar.R {
				node = t.Right(u)
			}
			break
		}
		if err := connect(u, side(node), xbar.P); err != nil {
			return 0, err
		}
		node = u
	}

	// Downward: each switch compares the header with its children's spans.
	for t.IsSwitch(node) {
		next := t.Left(node)
		out := xbar.L
		if t.Contains(t.Right(node), hdr.Dst) {
			next = t.Right(node)
			out = xbar.R
		}
		if err := connect(node, xbar.P, out); err != nil {
			return 0, err
		}
		node = next
	}
	return hops, nil
}

// Disjoint reports whether the set is pairwise disjoint in the sense of
// [3]: no two communications use the same tree link, even in opposite
// directions.
func Disjoint(t *topology.Tree, s *comm.Set) (bool, error) {
	used := make([]bool, t.EdgeCount()+2) // indexed by child node (links)
	for _, c := range s.Comms {
		src, dst := c.Src, c.Dst
		if src > dst {
			src, dst = dst, src
		}
		edges, err := t.PathEdges(src, dst)
		if err != nil {
			return false, err
		}
		for _, e := range edges {
			idx := int(e.Child) - 2
			if used[idx] {
				return false, nil
			}
			used[idx] = true
		}
	}
	return true, nil
}

// Result is the outcome of routing a disjoint set.
type Result struct {
	// Report is the power ledger (every circuit established once).
	Report *power.Report
	// Hops is the total number of switch configurations.
	Hops int
	// MaxHops is the longest single circuit (paper: O(log N)).
	MaxHops int
}

// RouteAll self-routes an entire disjoint communication set simultaneously
// (one round, both orientations together). It rejects non-disjoint sets —
// scheduling those is exactly what the paper's algorithm adds.
func RouteAll(t *topology.Tree, s *comm.Set) (*Result, error) {
	if t.Leaves() != s.N {
		return nil, fmt.Errorf("selfroute: tree has %d leaves, set has N=%d", t.Leaves(), s.N)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	ok, err := Disjoint(t, s)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("selfroute: set is not disjoint; use the CSA scheduler")
	}
	switches := circuit.NewSwitches(t)
	res := &Result{}
	for _, c := range s.Comms {
		hops, err := Route(t, switches, c)
		if err != nil {
			return nil, err
		}
		res.Hops += hops
		if hops > res.MaxHops {
			res.MaxHops = hops
		}
	}
	res.Report = power.Collect("selfroute", power.Stateful, 1, t, switches)
	return res, nil
}
