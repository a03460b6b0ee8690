// Package comm defines communications and communication sets on the CST
// (paper §1, §2.1).
//
// A communication is a (source PE, destination PE) pair. A set is *right
// oriented* when every source lies to the left of its destination. A right
// oriented set is *well nested* when its spans form a balanced, well-nested
// parenthesis expression (paper Fig. 2): spans never cross, though they may
// nest or be disjoint. Each PE takes part in at most one communication and
// in at most one role (it is a source, a destination, or neither — Step 1.1
// of the algorithm relies on this).
//
// The *width* of a set is the maximum number of communications that need the
// same tree link in the same direction; the scheduling lower bound and the
// round count of the paper's algorithm are both exactly the width.
package comm

import (
	"fmt"
	"sort"
	"strings"

	"cst/internal/topology"
)

// Comm is one communication: data flows from PE Src to PE Dst.
type Comm struct {
	Src, Dst int
}

// String renders the communication as "src->dst".
func (c Comm) String() string { return fmt.Sprintf("%d->%d", c.Src, c.Dst) }

// RightOriented reports whether the source lies left of the destination.
func (c Comm) RightOriented() bool { return c.Src < c.Dst }

// span returns the communication's endpoints in line order, regardless of
// orientation. Span geometry (containment, crossing, gap congestion) is a
// property of the undirected interval, so every predicate built on it works
// for left- and right-oriented communications alike.
func (c Comm) span() (lo, hi int) {
	if c.Src < c.Dst {
		return c.Src, c.Dst
	}
	return c.Dst, c.Src
}

// Contains reports whether c's span strictly contains d's span. Orientation
// does not matter: endpoints are normalized to line order internally, so a
// left-oriented communication and its mirror image give the same answer.
func (c Comm) Contains(d Comm) bool {
	clo, chi := c.span()
	dlo, dhi := d.span()
	return clo < dlo && dhi < chi
}

// Crosses reports whether the two spans cross, i.e. overlap without nesting.
// Crossing pairs are exactly what well-nestedness forbids. Like Contains,
// the check is orientation-agnostic (and hence mirror-invariant): only the
// undirected intervals matter.
func (c Comm) Crosses(d Comm) bool {
	clo, chi := c.span()
	dlo, dhi := d.span()
	return (clo < dlo && dlo < chi && chi < dhi) ||
		(dlo < clo && clo < dhi && dhi < chi)
}

// Set is a communication set over N PEs. N must be a power of two to map
// onto a CST; Validate enforces this.
type Set struct {
	// N is the number of PEs (leaves of the CST).
	N int
	// Comms lists the communications. Order carries no meaning.
	Comms []Comm
}

// NewSet returns a set over n PEs with the given communications.
// It does not validate; call Validate for that.
func NewSet(n int, comms ...Comm) *Set {
	return &Set{N: n, Comms: append([]Comm(nil), comms...)}
}

// Len returns the number of communications.
func (s *Set) Len() int { return len(s.Comms) }

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	return &Set{N: s.N, Comms: append([]Comm(nil), s.Comms...)}
}

// Validate checks that N is a power of two (>= 2), every endpoint is a PE in
// [0, N), no communication is a self-loop, and every PE plays at most one
// role (source of at most one, destination of at most one, never both).
// Its memory is O(Len()) whatever N is; a Validator reuses it.
func (s *Set) Validate() error {
	var v Validator
	return v.Validate(s)
}

// Validator is Set.Validate with scratch it keeps between calls, so a
// caller validating set after set allocates nothing once the scratch has
// grown to its largest set. The zero value is ready to use; a Validator is
// not safe for concurrent use.
type Validator struct {
	roles Index // the PEs seen so far, keyed {pe, 0}: 0 a source, 1 a destination
}

// roleNames names the roles Validator records.
var roleNames = [2]string{"source", "destination"}

// Validate checks s as Set.Validate does.
func (v *Validator) Validate(s *Set) error {
	if s.N < 2 || s.N&(s.N-1) != 0 {
		return fmt.Errorf("comm: N must be a power of two >= 2, got %d", s.N)
	}
	v.roles.Reset(2 * len(s.Comms))
	for _, c := range s.Comms {
		if c.Src < 0 || c.Src >= s.N || c.Dst < 0 || c.Dst >= s.N {
			return fmt.Errorf("comm: %s out of range for N=%d", c, s.N)
		}
		if c.Src == c.Dst {
			return fmt.Errorf("comm: self loop at PE %d", c.Src)
		}
		if r, ok := v.roles.Insert(Comm{Src: c.Src}, 0); ok {
			return fmt.Errorf("comm: PE %d already a %s, cannot also source %s", c.Src, roleNames[r], c)
		}
		if r, ok := v.roles.Insert(Comm{Src: c.Dst}, 1); ok {
			return fmt.Errorf("comm: PE %d already a %s, cannot also receive %s", c.Dst, roleNames[r], c)
		}
	}
	return nil
}

// Index is a hash table from communications to ints, for checks that ask
// whether a set repeats a communication or a PE: an open-addressing table
// of at least twice as many slots as keys, emptied in O(keys) by Reset and
// reused set after set without allocating. Any ints are valid keys. The
// zero value is ready once Reset; an Index is not safe for concurrent use.
type Index struct {
	keys  []Comm
	vals  []int // vals[k]-1 is slot k's value; 0 marks an empty slot
	shift uint  // 64 - log2(len(keys)): a hash's top bits pick its slot
}

// Reset empties x for up to n keys.
func (x *Index) Reset(n int) {
	size, shift := 4, uint(62)
	for size < 2*n {
		size, shift = 2*size, shift-1
	}
	if cap(x.keys) < size {
		x.keys, x.vals = make([]Comm, size), make([]int, size)
	}
	x.keys, x.vals, x.shift = x.keys[:size], x.vals[:size], shift
	clear(x.vals)
}

// slot returns c's slot, or the empty slot where c would go.
func (x *Index) slot(c Comm) int {
	h := uint64(c.Src)*0x9e3779b97f4a7c15 ^ uint64(c.Dst)*0xc2b2ae3d27d4eb4f
	mask := len(x.keys) - 1
	k := int(h >> x.shift)
	for x.vals[k] != 0 && x.keys[k] != c {
		k = (k + 1) & mask
	}
	return k
}

// Insert stores v under c unless c is already there. It returns the value
// c holds afterwards and whether c was already there.
func (x *Index) Insert(c Comm, v int) (int, bool) {
	k := x.slot(c)
	if x.vals[k] != 0 {
		return x.vals[k] - 1, true
	}
	x.keys[k], x.vals[k] = c, v+1
	return v, false
}

// Find returns c's value and whether c is there.
func (x *Index) Find(c Comm) (int, bool) {
	k := x.slot(c)
	return x.vals[k] - 1, x.vals[k] != 0
}

// IsRightOriented reports whether every communication has Src < Dst.
func (s *Set) IsRightOriented() bool {
	for _, c := range s.Comms {
		if !c.RightOriented() {
			return false
		}
	}
	return true
}

// IsWellNested reports whether the set is right oriented, valid, and free of
// crossing spans — i.e. whether it corresponds to a balanced well-nested
// parenthesis expression over the PE line.
func (s *Set) IsWellNested() bool {
	if s.Validate() != nil || !s.IsRightOriented() {
		return false
	}
	// Scan left to right, maintaining a stack of open destinations. A source
	// pushes its destination; a destination must match the innermost open
	// one.
	events := s.roleByPE()
	var stack []int
	for pe := 0; pe < s.N; pe++ {
		switch e := events[pe]; {
		case e > 0: // source; e-1 is the comm index
			stack = append(stack, s.Comms[e-1].Dst)
		case e < 0: // destination
			if len(stack) == 0 || stack[len(stack)-1] != pe {
				return false
			}
			stack = stack[:len(stack)-1]
		}
	}
	return len(stack) == 0
}

// roleByPE returns, for each PE, +1+commIndex if it is a source, -1-commIndex
// if a destination, 0 if idle. Callers must have validated the set.
func (s *Set) roleByPE() []int {
	events := make([]int, s.N)
	for i, c := range s.Comms {
		events[c.Src] = i + 1
		events[c.Dst] = -(i + 1)
	}
	return events
}

// Sorted returns the communications ordered by source position.
func (s *Set) Sorted() []Comm {
	out := append([]Comm(nil), s.Comms...)
	sort.Slice(out, func(i, j int) bool { return out[i].Src < out[j].Src })
	return out
}

// String renders the set as a parenthesis expression: '(' at sources, ')' at
// destinations, '.' at idle PEs (paper Fig. 2 notation). Only meaningful for
// right-oriented sets.
func (s *Set) String() string {
	b := make([]byte, s.N)
	for i := range b {
		b[i] = '.'
	}
	for _, c := range s.Comms {
		if c.Src >= 0 && c.Src < s.N {
			b[c.Src] = '('
		}
		if c.Dst >= 0 && c.Dst < s.N {
			b[c.Dst] = ')'
		}
	}
	return string(b)
}

// Parse builds a set from a parenthesis expression: '(' opens a
// communication, ')' closes the innermost open one, '.' (or ' ' or '_') is
// an idle PE. The PE count is the smallest power of two >= len(expr)
// (minimum 2). Parse returns an error for unbalanced expressions.
func Parse(expr string) (*Set, error) {
	n := 2
	for n < len(expr) {
		n *= 2
	}
	return ParseN(expr, n)
}

// ParseN is Parse with an explicit PE count n; len(expr) must not exceed n.
func ParseN(expr string, n int) (*Set, error) {
	if len(expr) > n {
		return nil, fmt.Errorf("comm: expression of length %d exceeds N=%d", len(expr), n)
	}
	s := &Set{N: n}
	var stack []int
	for pe, ch := range expr {
		switch ch {
		case '(':
			stack = append(stack, pe)
		case ')':
			if len(stack) == 0 {
				return nil, fmt.Errorf("comm: unmatched ')' at position %d", pe)
			}
			src := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			s.Comms = append(s.Comms, Comm{Src: src, Dst: pe})
		case '.', ' ', '_':
			// idle PE
		default:
			return nil, fmt.Errorf("comm: unexpected character %q at position %d", ch, pe)
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("comm: %d unmatched '(' in %q", len(stack), expr)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustParse is Parse but panics on error; for tests and examples.
func MustParse(expr string) *Set {
	s, err := Parse(expr)
	if err != nil {
		panic(err)
	}
	return s
}

// Depths returns the nesting depth of each communication (0 = outermost),
// indexed like Comms. It requires a well-nested set and errors otherwise.
func (s *Set) Depths() ([]int, error) {
	if !s.IsWellNested() {
		return nil, fmt.Errorf("comm: Depths requires a well-nested set (%q)", s.String())
	}
	depths := make([]int, len(s.Comms))
	events := s.roleByPE()
	depth := 0
	for pe := 0; pe < s.N; pe++ {
		switch e := events[pe]; {
		case e > 0:
			depths[e-1] = depth
			depth++
		case e < 0:
			depth--
		}
	}
	return depths, nil
}

// MaxDepth returns 1 + the maximum nesting depth (i.e. the size of the
// largest chain of mutually nested communications), or 0 for an empty set.
// The tree-link width (Width) never exceeds MaxDepth — only nested
// communications can share a directed link — but it can be strictly
// smaller: two nested spans whose circuits meet the tree in disjoint edge
// sets (e.g. (6,7) inside (5,8)) do not conflict. Chains that cross a
// common subtree root (e.g. NestedChain) have width equal to MaxDepth.
func (s *Set) MaxDepth() (int, error) {
	depths, err := s.Depths()
	if err != nil {
		return 0, err
	}
	maxd := -1
	for _, d := range depths {
		if d > maxd {
			maxd = d
		}
	}
	return maxd + 1, nil
}

// Width returns the set's width on the given tree: the maximum, over all
// directed tree edges, of the number of communications whose circuit uses
// that edge (paper §1: "if at most w communications require to use the same
// link in the same direction, the communication set is of width w").
func (s *Set) Width(t *topology.Tree) (int, error) {
	return s.WidthInto(t, nil)
}

// WidthInto is Width with a caller-owned congestion scratch buffer. When
// scratch has capacity for t.DirectedEdgeCount() counters the computation
// allocates nothing, so engines that recompute widths per run can keep one
// warm buffer. A nil or undersized scratch is replaced by a fresh
// allocation; the buffer's previous contents are always cleared here.
func (s *Set) WidthInto(t *topology.Tree, scratch []int) (int, error) {
	if t.Leaves() != s.N {
		return 0, fmt.Errorf("comm: tree has %d leaves, set has N=%d", t.Leaves(), s.N)
	}
	need := t.DirectedEdgeCount()
	if cap(scratch) < need {
		scratch = make([]int, need)
	} else {
		scratch = scratch[:need]
		for i := range scratch {
			scratch[i] = 0
		}
	}
	maxw := 0
	for _, c := range s.Comms {
		err := t.EachPathEdge(c.Src, c.Dst, func(e topology.Edge) {
			idx := t.EdgeIndex(e)
			scratch[idx]++
			if scratch[idx] > maxw {
				maxw = scratch[idx]
			}
		})
		if err != nil {
			return 0, err
		}
	}
	return maxw, nil
}

// Mirror returns the set reflected around the centre of the PE line,
// turning a left-oriented set into a right-oriented one and vice versa.
func (s *Set) Mirror() *Set {
	out := &Set{N: s.N, Comms: make([]Comm, len(s.Comms))}
	for i, c := range s.Comms {
		out.Comms[i] = Comm{Src: s.N - 1 - c.Src, Dst: s.N - 1 - c.Dst}
	}
	return out
}

// Decompose splits an arbitrary valid set into a right-oriented subset and a
// left-oriented subset (paper §2.1: "Any set can be decomposed into two sets
// each of them is oriented"). The left-oriented subset is returned mirrored
// (i.e. as a right-oriented set over the reflected PE line) so that both
// halves can be fed to the right-oriented scheduler; padr.WithReflection
// runs the mirrored half on the physical switches its circuits use.
func Decompose(s *Set) (right, leftMirrored *Set) {
	right = &Set{N: s.N}
	left := &Set{N: s.N}
	for _, c := range s.Comms {
		if c.RightOriented() {
			right.Comms = append(right.Comms, c)
		} else {
			left.Comms = append(left.Comms, c)
		}
	}
	return right, left.Mirror()
}

// GapProfile returns, for each of the N-1 gaps between consecutive PEs, the
// number of (right-oriented) spans crossing that gap. It is the line-level
// congestion used by renderers and by the segmentable-bus mapping.
func (s *Set) GapProfile() []int {
	prof := make([]int, s.N-1)
	for _, c := range s.Comms {
		lo, hi := c.Src, c.Dst
		if lo > hi {
			lo, hi = hi, lo
		}
		for g := lo; g < hi; g++ {
			prof[g]++
		}
	}
	return prof
}

// Summary renders a one-line human description, e.g.
// "8 PEs, 3 comms, well-nested depth 2: (()).()." (the link width, which
// may be smaller than the depth, needs a tree — see Width).
func (s *Set) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d PEs, %d comms", s.N, len(s.Comms))
	if s.IsWellNested() {
		if d, err := s.MaxDepth(); err == nil {
			fmt.Fprintf(&b, ", well-nested depth %d", d)
		}
	}
	fmt.Fprintf(&b, ": %s", s.String())
	return b.String()
}
