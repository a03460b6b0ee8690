// Package trace renders CST runs for humans: the communication-set line
// view of the paper's Fig. 2, the tree-with-configurations view of Fig. 1,
// and a streaming round-by-round log assembled from padr observer
// callbacks. cmd/cstviz and cmd/cstsim are thin wrappers over this package.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/ctrl"
	"cst/internal/deliver"
	"cst/internal/padr"
	"cst/internal/sched"
	"cst/internal/topology"
	"cst/internal/xbar"
)

// RenderSet draws a communication set the way the paper's Fig. 2 does: the
// PE line with '(' at sources and ')' at destinations, span arcs one row per
// nesting level, and the per-gap congestion profile underneath.
func RenderSet(s *comm.Set) string {
	var b strings.Builder
	depths, err := s.Depths()
	wellNested := err == nil
	fmt.Fprintf(&b, "PEs : %s\n", s.String())

	if wellNested && s.Len() > 0 {
		maxd := 0
		for _, d := range depths {
			if d > maxd {
				maxd = d
			}
		}
		for level := 0; level <= maxd; level++ {
			row := make([]byte, s.N)
			for i := range row {
				row[i] = ' '
			}
			for i, c := range s.Comms {
				if depths[i] != level {
					continue
				}
				row[c.Src] = '\\'
				row[c.Dst] = '/'
				for p := c.Src + 1; p < c.Dst; p++ {
					row[p] = '_'
				}
			}
			fmt.Fprintf(&b, "d=%-2d: %s\n", level, strings.TrimRight(string(row), " "))
		}
	}

	prof := s.GapProfile()
	row := make([]byte, s.N)
	for i := range row {
		row[i] = ' '
	}
	for g, c := range prof {
		if c > 9 {
			row[g] = '+'
		} else if c > 0 {
			row[g] = byte('0' + c)
		} else {
			row[g] = '.'
		}
	}
	fmt.Fprintf(&b, "gaps: %s\n", strings.TrimRight(string(row), " "))
	return b.String()
}

// RenderTree draws the tree with one annotation per switch, typically its
// live configuration (Fig. 1 style). Pass nil to annotate switch roles from
// the stored words instead.
func RenderTree(t *topology.Tree, cfg circuit.RoundConfig, s *comm.Set) string {
	return t.ASCII(func(n topology.Node) string {
		if t.IsLeaf(n) {
			pe := t.PE(n)
			if s != nil {
				for _, c := range s.Comms {
					if c.Src == pe {
						return fmt.Sprintf("S%d", pe)
					}
					if c.Dst == pe {
						return fmt.Sprintf("D%d", pe)
					}
				}
			}
			return "."
		}
		if cfg == nil {
			return ""
		}
		conf := cfg[n]
		if len(conf.Conns()) == 0 {
			return "·"
		}
		return strings.Trim(conf.String(), "[]")
	})
}

// RenderStored annotates each switch with its C_S word, the Fig. 3(b)/4(a)
// teaching view; stored is indexed by node (padr.Result.InitialStored).
// Wider cells keep the five-field words readable.
func RenderStored(t *topology.Tree, stored []ctrl.Stored, s *comm.Set) string {
	return t.ASCIIWidth(func(n topology.Node) string {
		if t.IsLeaf(n) {
			pe := t.PE(n)
			if s != nil {
				for _, c := range s.Comms {
					if c.Src == pe {
						return "S"
					}
					if c.Dst == pe {
						return "D"
					}
				}
			}
			return "."
		}
		var st ctrl.Stored
		if int(n) < len(stored) {
			st = stored[n]
		}
		if !st.Pending() {
			return "·"
		}
		return st.String()
	}, 24)
}

// RenderGantt draws a schedule as one row per round, each communication's
// span overlaid on the PE line — the round-by-round counterpart of
// RenderSet. Longer spans draw first so nested compatible pairs stay
// visible.
func RenderGantt(s *sched.Schedule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "PEs : %s\n", s.Set.String())
	for r, round := range s.Rounds {
		row := make([]byte, s.Set.N)
		for i := range row {
			row[i] = ' '
		}
		ordered := append([]comm.Comm(nil), round...)
		sort.Slice(ordered, func(i, j int) bool {
			return span(ordered[i]) > span(ordered[j])
		})
		for _, c := range ordered {
			lo, hi := c.Src, c.Dst
			if lo > hi {
				lo, hi = hi, lo
			}
			for p := lo + 1; p < hi; p++ {
				row[p] = '_'
			}
			row[c.Src] = '\\'
			row[c.Dst] = '/'
		}
		fmt.Fprintf(&b, "r=%-3d: %s\n", r, strings.TrimRight(string(row), " "))
	}
	return b.String()
}

func span(c comm.Comm) int {
	d := c.Dst - c.Src
	if d < 0 {
		return -d
	}
	return d
}

// Logger streams a run to an io.Writer via padr observer callbacks.
type Logger struct {
	tree *topology.Tree
	set  *comm.Set
	out  io.Writer
	// Words controls whether every control word is printed.
	Words bool
	// Trees controls whether the configured tree is drawn after each round.
	Trees bool

	rec deliver.Recorder
	obs padr.Observer
}

// NewLogger builds a logger for one run.
func NewLogger(t *topology.Tree, s *comm.Set, out io.Writer) *Logger {
	l := &Logger{tree: t, set: s, out: out}
	inner := l.rec.Observer()
	l.obs = padr.Observer{
		RoundStart: func(round int) {
			inner.RoundStart(round)
			fmt.Fprintf(out, "--- round %d ---\n", round)
		},
		WordSent: func(parent, child topology.Node, w ctrl.Down) {
			if l.Words && w.Use != ctrl.UseNone {
				fmt.Fprintf(out, "  %d -> %d : %s\n", parent, child, w)
			}
		},
		Configured: func(u topology.Node, cfg xbar.Config) {
			inner.Configured(u, cfg)
		},
		RoundDone: func(round int, performed []comm.Comm) {
			inner.RoundDone(round, performed)
			parts := make([]string, len(performed))
			for i, c := range performed {
				parts[i] = c.String()
			}
			fmt.Fprintf(out, "  performed: %s\n", strings.Join(parts, " "))
			if l.Trees {
				fmt.Fprint(out, RenderTree(l.tree, l.rec.Config(round), l.set))
			}
		},
	}
	return l
}

// Observer returns the padr callbacks; pass to padr.WithObserver.
func (l *Logger) Observer() padr.Observer { return l.obs }

// VerifyDataPlane replays the captured rounds through the token data plane.
func (l *Logger) VerifyDataPlane() error { return l.rec.Verify(l.tree) }
