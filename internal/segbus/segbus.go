// Package segbus models the segmentable bus, the "fundamental
// reconfigurable architecture" whose communication requirements the paper
// cites as a subset of the well-nested class (§1).
//
// A segmentable bus is a line of N PEs with N-1 segment switches between
// adjacent PEs. Splitting a switch cuts the bus into independent segments;
// in one bus cycle each segment carries at most one transfer (one writer,
// one reader within the segment). Because segments are disjoint intervals,
// the transfers of one cycle form a set of disjoint spans — a width-1
// oriented well-nested set once each transfer is oriented — so the CST
// schedules every cycle in a single round, and a multi-cycle program is a
// sequence of PADR runs over the same crossbars, paying only for genuine
// configuration changes between cycles.
package segbus

import (
	"fmt"
	"math/rand"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/padr"
	"cst/internal/power"
	"cst/internal/topology"
)

// Bus is a segmentable bus over n PEs. The zero value is unusable; use New.
type Bus struct {
	n     int
	split []bool // split[i]: the switch between PE i and PE i+1 is open (bus cut)
}

// New returns a bus over n PEs (n >= 2) with no splits: one segment.
func New(n int) (*Bus, error) {
	if n < 2 {
		return nil, fmt.Errorf("segbus: need at least 2 PEs, got %d", n)
	}
	return &Bus{n: n, split: make([]bool, n-1)}, nil
}

// N returns the number of PEs.
func (b *Bus) N() int { return b.n }

// Split cuts the bus between PE i and PE i+1.
func (b *Bus) Split(i int) error {
	if i < 0 || i >= b.n-1 {
		return fmt.Errorf("segbus: no segment switch at gap %d", i)
	}
	b.split[i] = true
	return nil
}

// Segments returns the current segments as half-open PE intervals [lo, hi).
func (b *Bus) Segments() [][2]int {
	var segs [][2]int
	lo := 0
	for i := 0; i < b.n-1; i++ {
		if b.split[i] {
			segs = append(segs, [2]int{lo, i + 1})
			lo = i + 1
		}
	}
	segs = append(segs, [2]int{lo, b.n})
	return segs
}

// SegmentOf returns the segment interval containing PE pe.
func (b *Bus) SegmentOf(pe int) ([2]int, error) {
	if pe < 0 || pe >= b.n {
		return [2]int{}, fmt.Errorf("segbus: PE %d out of range", pe)
	}
	for _, s := range b.Segments() {
		if pe >= s[0] && pe < s[1] {
			return s, nil
		}
	}
	return [2]int{}, fmt.Errorf("segbus: internal error: PE %d in no segment", pe)
}

// Transfer is one bus operation: Writer drives its segment, Reader latches.
type Transfer struct {
	Writer, Reader int
}

// Cycle is one bus cycle: a set of transfers, at most one per segment.
type Cycle struct {
	Transfers []Transfer
}

// CommSet converts a cycle into a communication set on the CST, after
// validating that every transfer stays within one current segment and that
// no segment carries two transfers. The result contains both orientations
// (a reader may sit left of its writer); use comm.Decompose to split it for
// the right-oriented scheduler.
func (b *Bus) CommSet(c Cycle) (*comm.Set, error) {
	n := b.n
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("segbus: bus size %d is not a power of two; cannot map onto a CST", n)
	}
	used := map[[2]int]bool{}
	s := &comm.Set{N: n}
	for _, tr := range c.Transfers {
		if tr.Writer == tr.Reader {
			return nil, fmt.Errorf("segbus: transfer %d->%d is a self loop", tr.Writer, tr.Reader)
		}
		seg, err := b.SegmentOf(tr.Writer)
		if err != nil {
			return nil, err
		}
		if tr.Reader < seg[0] || tr.Reader >= seg[1] {
			return nil, fmt.Errorf("segbus: reader %d outside writer %d's segment [%d,%d)", tr.Reader, tr.Writer, seg[0], seg[1])
		}
		if used[seg] {
			return nil, fmt.Errorf("segbus: segment [%d,%d) carries two transfers", seg[0], seg[1])
		}
		used[seg] = true
		s.Comms = append(s.Comms, comm.Comm{Src: tr.Writer, Dst: tr.Reader})
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ProgramResult is the outcome of running a multi-cycle program on a CST.
type ProgramResult struct {
	// Cycles is the number of bus cycles executed.
	Cycles int
	// Rounds is the total CST rounds over all cycles (right- plus
	// left-oriented passes).
	Rounds int
	// Report is the accumulated power ledger over the whole program: the
	// same crossbars served every cycle, so held configurations carried
	// across cycles cost nothing.
	Report *power.Report
}

// RunProgram executes a sequence of cycles on the tree. Each cycle becomes
// at most two PADR runs (one per orientation) against the same crossbars.
func RunProgram(t *topology.Tree, b *Bus, cycles []Cycle) (*ProgramResult, error) {
	if t.Leaves() != b.n {
		return nil, fmt.Errorf("segbus: tree has %d leaves, bus has %d PEs", t.Leaves(), b.n)
	}
	switches := circuit.NewSwitches(t)
	totalRounds := 0
	for i, cyc := range cycles {
		set, err := b.CommSet(cyc)
		if err != nil {
			return nil, fmt.Errorf("segbus: cycle %d: %v", i, err)
		}
		right, leftM := comm.Decompose(set)
		for pass, oriented := range []*comm.Set{right, leftM} {
			if oriented.Len() == 0 {
				continue
			}
			// The right-oriented pass drives the crossbars directly; the
			// mirrored (originally left-oriented) pass drives them through
			// the reflection adapter, so every connection lands on the
			// physical switch the leftward circuit really uses.
			e, err := padr.New(t, oriented, padr.WithCrossbars(switches), padr.WithReflection(pass == 1))
			if err != nil {
				return nil, fmt.Errorf("segbus: cycle %d pass %d: %v", i, pass, err)
			}
			res, err := e.Run()
			if err != nil {
				return nil, fmt.Errorf("segbus: cycle %d pass %d: %v", i, pass, err)
			}
			totalRounds += res.Rounds
		}
	}
	return &ProgramResult{
		Cycles: len(cycles),
		Rounds: totalRounds,
		Report: power.Collect("segbus-padr", power.Stateful, totalRounds, t, switches),
	}, nil
}

// RandomProgram generates a random program: each cycle randomly re-splits
// the bus into aligned segments of width segWidth and issues one transfer in
// each segment with probability density. Useful for experiment E6.
func RandomProgram(rng *rand.Rand, b *Bus, cycles, segWidth int, density float64) ([]Cycle, error) {
	if segWidth < 2 || b.n%segWidth != 0 {
		return nil, fmt.Errorf("segbus: segment width %d must be >= 2 and divide %d", segWidth, b.n)
	}
	var prog []Cycle
	for c := 0; c < cycles; c++ {
		// Reconfigure the bus: aligned segments of segWidth.
		for i := 0; i < b.n-1; i++ {
			b.split[i] = (i+1)%segWidth == 0
		}
		var cyc Cycle
		for _, seg := range b.Segments() {
			if rng.Float64() >= density {
				continue
			}
			w := seg[0] + rng.Intn(seg[1]-seg[0])
			r := seg[0] + rng.Intn(seg[1]-seg[0])
			if w == r {
				r = seg[0] + (r-seg[0]+1)%(seg[1]-seg[0])
			}
			cyc.Transfers = append(cyc.Transfers, Transfer{Writer: w, Reader: r})
		}
		prog = append(prog, cyc)
	}
	return prog, nil
}
