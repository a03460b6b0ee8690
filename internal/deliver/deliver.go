// Package deliver verifies Theorem 4 on the data plane: it pushes one
// unique token per scheduled source through the *switch configurations
// alone* (no knowledge of the algorithm's intent) and checks every
// scheduled destination receives exactly its partner's token.
//
// The data unit of a switch (paper Fig. 3(a)) forwards, for each output,
// the value present at the configured driving input. The tree makes
// propagation acyclic: upward values are computed leaves-to-root, then
// downward values root-to-leaves.
package deliver

import (
	"fmt"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/padr"
	"cst/internal/topology"
	"cst/internal/xbar"
)

// NoToken marks an idle link.
const NoToken = -1

// Propagate pushes tokens through one round's configurations. sources lists
// the PEs that drive their upward leaf link this round (each drives its own
// PE index as the token). The result maps every PE to the token visible on
// its downward leaf link (NoToken if idle). Idle PEs may legitimately see
// stale garbage when configurations are held across rounds; only scheduled
// destinations' readings are meaningful, which is exactly what the paper's
// Step 2.1 prescribes ("all PEs that receive [s,null] or [d,null] will
// participate").
func Propagate(t *topology.Tree, cfg circuit.RoundConfig, sources []int) []int {
	n := t.Leaves()
	// up[node] is the token on the node→parent link half.
	up := make(map[topology.Node]int, 2*n)
	for pe := 0; pe < n; pe++ {
		up[t.Leaf(pe)] = NoToken
	}
	for _, pe := range sources {
		up[t.Leaf(pe)] = pe
	}
	t.EachSwitchBottomUp(func(u topology.Node) {
		up[u] = NoToken
		switch cfg[u].Driver(xbar.P) {
		case xbar.L:
			up[u] = up[t.Left(u)]
		case xbar.R:
			up[u] = up[t.Right(u)]
		}
	})
	// down[node] is the token on the parent→node link half.
	down := make(map[topology.Node]int, 2*n)
	down[t.Root()] = NoToken
	t.EachSwitchTopDown(func(u topology.Node) {
		for _, side := range []xbar.Side{xbar.L, xbar.R} {
			child := t.Left(u)
			if side == xbar.R {
				child = t.Right(u)
			}
			token := NoToken
			switch cfg[u].Driver(side) {
			case xbar.L:
				token = up[t.Left(u)]
			case xbar.R:
				token = up[t.Right(u)]
			case xbar.P:
				token = down[u]
			}
			down[child] = token
		}
	})
	out := make([]int, n)
	for pe := 0; pe < n; pe++ {
		out[pe] = down[t.Leaf(pe)]
	}
	return out
}

// VerifyRound checks that every communication performed in a round actually
// received its source's token through the configured circuits.
func VerifyRound(t *topology.Tree, cfg circuit.RoundConfig, performed []comm.Comm) error {
	sources := make([]int, len(performed))
	for i, c := range performed {
		sources[i] = c.Src
	}
	tokens := Propagate(t, cfg, sources)
	for _, c := range performed {
		if got := tokens[c.Dst]; got != c.Src {
			return fmt.Errorf("deliver: destination %d read token %d, want %d", c.Dst, got, c.Src)
		}
	}
	return nil
}

// Recorder captures per-round configuration snapshots from a padr run.
// Attach via Observer(), run the engine, then call Verify.
type Recorder struct {
	rounds    []circuit.RoundConfig
	performed [][]comm.Comm
	current   circuit.RoundConfig
}

// Observer returns padr callbacks that populate the recorder. Compose by
// hand if you also need your own callbacks.
func (r *Recorder) Observer() padr.Observer {
	return padr.Observer{
		RoundStart: func(int) { r.current = circuit.RoundConfig{} },
		Configured: func(u topology.Node, cfg xbar.Config) {
			r.current[u] = cfg
		},
		RoundDone: func(_ int, performed []comm.Comm) {
			r.rounds = append(r.rounds, r.current)
			r.performed = append(r.performed, append([]comm.Comm(nil), performed...))
			r.current = nil
		},
	}
}

// Rounds returns the number of captured rounds.
func (r *Recorder) Rounds() int { return len(r.rounds) }

// Config returns the captured configuration snapshot of one round.
func (r *Recorder) Config(round int) circuit.RoundConfig { return r.rounds[round] }

// Verify replays every captured round through the data plane.
func (r *Recorder) Verify(t *topology.Tree) error {
	if len(r.rounds) != len(r.performed) {
		return fmt.Errorf("deliver: recorder captured %d configs but %d round outcomes", len(r.rounds), len(r.performed))
	}
	for i := range r.rounds {
		if err := VerifyRound(t, r.rounds[i], r.performed[i]); err != nil {
			return fmt.Errorf("deliver: round %d: %v", i, err)
		}
	}
	return nil
}
