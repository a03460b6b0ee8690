package comm

import (
	"fmt"
	"math/rand"
	"sort"

	"cst/internal/topology"
)

// Generators for well-nested communication sets. All take an explicit
// *rand.Rand so every experiment is reproducible from a seed.

// RandomDyck returns a uniformly random balanced parenthesis word with m
// pairs, as a []byte of '(' and ')'. It uses the cycle lemma: a uniformly
// shuffled word of m+1 '(' and m ')' has exactly one rotation that is a
// prefix-positive path; dropping that rotation's leading '(' yields a
// uniform Dyck word.
func RandomDyck(rng *rand.Rand, m int) []byte {
	if m == 0 {
		return nil
	}
	w := make([]byte, 2*m+1)
	for i := 0; i <= m; i++ {
		w[i] = '('
	}
	for i := m + 1; i <= 2*m; i++ {
		w[i] = ')'
	}
	rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
	// Find the unique rotation point: just after the *last* minimum of the
	// prefix-sum walk (cycle lemma — the empty prefix, sum 0, is a
	// candidate too, hence the initial minSum of 0).
	sum, minSum, minPos := 0, 0, 0
	for i, ch := range w {
		if ch == '(' {
			sum++
		} else {
			sum--
		}
		if sum <= minSum {
			minSum, minPos = sum, i+1
		}
	}
	rot := make([]byte, 0, len(w))
	rot = append(rot, w[minPos:]...)
	rot = append(rot, w[:minPos]...)
	return rot[1:] // drop the guaranteed leading '('
}

// RandomWellNested generates a random well-nested right-oriented set with m
// communications over n PEs (n a power of two, 2m <= n): 2m distinct PE
// positions are chosen uniformly and filled with a uniform Dyck word.
func RandomWellNested(rng *rand.Rand, n, m int) (*Set, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("comm: n must be a power of two >= 2, got %d", n)
	}
	if 2*m > n {
		return nil, fmt.Errorf("comm: %d communications need %d PEs, only %d available", m, 2*m, n)
	}
	pos := rng.Perm(n)[:2*m]
	sortInts(pos)
	word := RandomDyck(rng, m)
	s := &Set{N: n}
	var stack []int
	for i, ch := range word {
		pe := pos[i]
		if ch == '(' {
			stack = append(stack, pe)
		} else {
			src := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			s.Comms = append(s.Comms, Comm{Src: src, Dst: pe})
		}
	}
	return s, nil
}

// RandomWellNestedWidth generates a random well-nested set over n PEs whose
// tree-link width (Set.Width, the paper's w) is exactly `width`. It requires
// 2*width <= n and m >= width. It retries the uniform generator a bounded
// number of times and falls back to a deterministic planted instance: a
// root-crossing chain of the exact width (whose w communications all share
// the links next to the root) plus disjoint sibling pairs — which add no
// link congestion — up to the m budget.
func RandomWellNestedWidth(rng *rand.Rand, n, m, width int) (*Set, error) {
	if width < 1 {
		return nil, fmt.Errorf("comm: width must be >= 1, got %d", width)
	}
	if m < width {
		m = width
	}
	if 2*m > n {
		return nil, fmt.Errorf("comm: %d communications need %d PEs, only %d available", m, 2*m, n)
	}
	tr, err := topology.New(n)
	if err != nil {
		return nil, err
	}
	for attempt := 0; attempt < 64; attempt++ {
		s, err := RandomWellNested(rng, n, m)
		if err != nil {
			return nil, err
		}
		w, err := s.Width(tr)
		if err != nil {
			return nil, err
		}
		if w == width {
			return s, nil
		}
	}
	return plantedWidth(n, m, width)
}

// plantedWidth builds the root-crossing chain (i, n-1-i) for i < width, then
// fills with disjoint aligned sibling pairs (which use only their two leaf
// links, so the width is untouched) up to the m budget.
func plantedWidth(n, m, width int) (*Set, error) {
	if 2*m > n || m < width {
		return nil, fmt.Errorf("comm: cannot plant width %d with m=%d over n=%d", width, m, n)
	}
	s := &Set{N: n}
	for i := 0; i < width; i++ {
		s.Comms = append(s.Comms, Comm{Src: i, Dst: n - 1 - i})
	}
	pe := width
	if pe%2 == 1 {
		pe++ // keep pairs sibling-aligned so they add no inner congestion
	}
	for len(s.Comms) < m && pe+1 < n-width {
		s.Comms = append(s.Comms, Comm{Src: pe, Dst: pe + 1})
		pe += 2
	}
	if len(s.Comms) < m {
		return nil, fmt.Errorf("comm: could not fit %d communications at width %d over n=%d", m, width, n)
	}
	return s, nil
}

// NestedChain returns the canonical width-w chain over n PEs:
// sources at PEs 0..w-1 and destinations at n-w..n-1 in reverse, i.e.
// ( ( ( ... ) ) ). This is the adversarial workload for power experiments:
// every communication is matched at the root.
func NestedChain(n, w int) (*Set, error) {
	if 2*w > n {
		return nil, fmt.Errorf("comm: chain of width %d needs %d PEs, got %d", w, 2*w, n)
	}
	s := &Set{N: n}
	for i := 0; i < w; i++ {
		s.Comms = append(s.Comms, Comm{Src: i, Dst: n - 1 - i})
	}
	return s, nil
}

// SplitChain returns a width-w nested chain (w even) whose sources are
// split between the two grandchild subtrees of the root's left child:
// sources 0..w/2-1 and n/4..n/4+w/2-1, destinations packed at the right
// edge. Every communication crosses the root, so the link width is exactly
// w. It is the adversarial workload for configuration *churn*: a scheduler
// that interleaves outer and inner communications (baseline.Alternating)
// forces the left child of the root to flip its p_o driver between its two
// subtrees Θ(w) times, while outermost-first consumes each subtree's
// sources contiguously.
func SplitChain(n, w int) (*Set, error) {
	if w%2 != 0 {
		return nil, fmt.Errorf("comm: split chain width must be even, got %d", w)
	}
	if w/2 > n/4 || w > n/2 {
		return nil, fmt.Errorf("comm: split chain of width %d does not fit %d PEs", w, n)
	}
	s := &Set{N: n}
	for i := 0; i < w; i++ {
		src := i
		if i >= w/2 {
			src = n/4 + (i - w/2)
		}
		s.Comms = append(s.Comms, Comm{Src: src, Dst: n - 1 - i})
	}
	return s, nil
}

// CompactChain returns the width-w chain packed into the leftmost 2w PEs:
// sources 0..w-1, destinations 2w-1..w. Unlike NestedChain, the chain's LCA
// structure spreads across the levels above PE w-1 rather than meeting at
// the root.
func CompactChain(n, w int) (*Set, error) {
	if 2*w > n {
		return nil, fmt.Errorf("comm: chain of width %d needs %d PEs, got %d", w, 2*w, n)
	}
	s := &Set{N: n}
	for i := 0; i < w; i++ {
		s.Comms = append(s.Comms, Comm{Src: i, Dst: 2*w - 1 - i})
	}
	return s, nil
}

// DisjointPairs returns the width-1 comb ()()()… with k pairs over n PEs,
// spread evenly. All communications are compatible and schedule in one
// round.
func DisjointPairs(n, k int) (*Set, error) {
	if 2*k > n {
		return nil, fmt.Errorf("comm: %d pairs need %d PEs, got %d", k, 2*k, n)
	}
	s := &Set{N: n}
	stride := n / k
	for i := 0; i < k; i++ {
		base := i * stride
		s.Comms = append(s.Comms, Comm{Src: base, Dst: base + 1})
	}
	return s, nil
}

// SiblingForest returns `groups` side-by-side nested chains, each of width
// `width`: (((...))) (((...))) …, a forest whose overall link width equals
// `width` but whose congested switches are spread across the tree rather
// than concentrated at the root. groups must be a power of two dividing n
// (so each chain crosses the root of its own aligned block, pinning that
// chain's width to `width` exactly), and each block of n/groups PEs must fit
// 2*width endpoints.
func SiblingForest(n, groups, width int) (*Set, error) {
	if groups < 1 || groups&(groups-1) != 0 || n%groups != 0 {
		return nil, fmt.Errorf("comm: groups must be a power of two dividing n; got groups=%d n=%d", groups, n)
	}
	stride := n / groups
	if 2*width > stride {
		return nil, fmt.Errorf("comm: forest block of %d PEs cannot hold a width-%d chain", stride, width)
	}
	s := &Set{N: n}
	for g := 0; g < groups; g++ {
		base := g * stride
		for i := 0; i < width; i++ {
			s.Comms = append(s.Comms, Comm{Src: base + i, Dst: base + stride - 1 - i})
		}
	}
	return s, nil
}

// Staircase returns a width-2 ladder pattern that exercises the [s,d]
// control word heavily: ( ( ) ( ) ( ) … ), an outer span containing k
// disjoint inner pairs.
func Staircase(n, k int) (*Set, error) {
	if 2*k+2 > n {
		return nil, fmt.Errorf("comm: staircase with %d inner pairs needs %d PEs, got %d", k, 2*k+2, n)
	}
	s := &Set{N: n}
	s.Comms = append(s.Comms, Comm{Src: 0, Dst: 2*k + 1})
	for i := 0; i < k; i++ {
		s.Comms = append(s.Comms, Comm{Src: 1 + 2*i, Dst: 2 + 2*i})
	}
	return s, nil
}

// BitReversal returns the bit-reversal permutation restricted to pairs
// (i, rev(i)) with i < rev(i): every PE i whose log2(n)-bit reversal differs
// from i communicates with it, oriented rightward. A classic
// crossing-heavy HPC pattern (FFT data exchange); it is NOT well nested, so
// it exercises the general scheduler and Decompose paths.
func BitReversal(n int) (*Set, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("comm: n must be a power of two >= 2, got %d", n)
	}
	bits := 0
	for 1<<bits < n {
		bits++
	}
	s := &Set{N: n}
	for i := 0; i < n; i++ {
		r := reverseBits(i, bits)
		if i < r {
			s.Comms = append(s.Comms, Comm{Src: i, Dst: r})
		}
	}
	return s, nil
}

// CrossingPairs returns m pairwise-crossing communications over n PEs with
// alternating orientations: the spans (i, i+m) for i < m all overlap
// without nesting, so no two of them can share a well-nested batch, and
// every second pair is left-oriented. It is the adversarial workload for
// the hybrid scheduler, which plans it in its width: the two orientations
// use opposite link directions, so they share rounds. With 2m <= n it is
// deterministic for a given (n, m).
func CrossingPairs(n, m int) (*Set, error) {
	if m < 1 {
		return nil, fmt.Errorf("comm: crossing pairs need m >= 1, got %d", m)
	}
	if 2*m > n {
		return nil, fmt.Errorf("comm: %d crossing pairs need %d PEs, got %d", m, 2*m, n)
	}
	s := &Set{N: n}
	for i := 0; i < m; i++ {
		c := Comm{Src: i, Dst: i + m}
		if i%2 == 1 {
			c.Src, c.Dst = c.Dst, c.Src
		}
		s.Comms = append(s.Comms, c)
	}
	return s, nil
}

func reverseBits(v, bits int) int {
	out := 0
	for i := 0; i < bits; i++ {
		out = out<<1 | (v & 1)
		v >>= 1
	}
	return out
}

// RandomOriented generates an arbitrary right-oriented (not necessarily
// well-nested) set: m random disjoint-endpoint pairs, each oriented
// rightward. Useful for exercising Decompose and the greedy baseline.
func RandomOriented(rng *rand.Rand, n, m int) (*Set, error) {
	if 2*m > n {
		return nil, fmt.Errorf("comm: %d communications need %d PEs, only %d available", m, 2*m, n)
	}
	pos := rng.Perm(n)[:2*m]
	s := &Set{N: n}
	for i := 0; i < m; i++ {
		a, b := pos[2*i], pos[2*i+1]
		if a > b {
			a, b = b, a
		}
		s.Comms = append(s.Comms, Comm{Src: a, Dst: b})
	}
	return s, nil
}

// RandomTwoSided generates an arbitrary set with both orientations: like
// RandomOriented but each pair keeps a random direction.
func RandomTwoSided(rng *rand.Rand, n, m int) (*Set, error) {
	s, err := RandomOriented(rng, n, m)
	if err != nil {
		return nil, err
	}
	for i := range s.Comms {
		if rng.Intn(2) == 0 {
			s.Comms[i].Src, s.Comms[i].Dst = s.Comms[i].Dst, s.Comms[i].Src
		}
	}
	return s, nil
}

func sortInts(a []int) { sort.Ints(a) }
