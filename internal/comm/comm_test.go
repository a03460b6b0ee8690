package comm

import (
	"strings"
	"testing"

	"cst/internal/topology"
)

func TestCommBasics(t *testing.T) {
	c := Comm{Src: 2, Dst: 5}
	if c.String() != "2->5" {
		t.Errorf("String = %q", c.String())
	}
	if !c.RightOriented() {
		t.Error("2->5 should be right oriented")
	}
	if (Comm{Src: 5, Dst: 2}).RightOriented() {
		t.Error("5->2 should not be right oriented")
	}
}

func TestContainsAndCrosses(t *testing.T) {
	outer := Comm{Src: 0, Dst: 7}
	inner := Comm{Src: 2, Dst: 5}
	crossA := Comm{Src: 1, Dst: 4}
	crossB := Comm{Src: 3, Dst: 6}

	if !outer.Contains(inner) {
		t.Error("outer must contain inner")
	}
	if inner.Contains(outer) {
		t.Error("inner must not contain outer")
	}
	if outer.Crosses(inner) || inner.Crosses(outer) {
		t.Error("nested spans do not cross")
	}
	if !crossA.Crosses(crossB) || !crossB.Crosses(crossA) {
		t.Error("1->4 and 3->6 cross")
	}
	disjointA := Comm{Src: 0, Dst: 1}
	disjointB := Comm{Src: 4, Dst: 5}
	if disjointA.Crosses(disjointB) {
		t.Error("disjoint spans do not cross")
	}
}

// flip reverses a communication's orientation without moving its span.
func flip(c Comm) Comm { return Comm{Src: c.Dst, Dst: c.Src} }

// Contains and Crosses are span predicates: they must answer from the
// undirected interval, identically for every one of the four orientation
// combinations of a pair. Before the fix, a left-oriented operand made
// both silently return wrong answers (e.g. 7->0 "containing" nothing).
func TestContainsCrossesOrientationAgnostic(t *testing.T) {
	cases := []struct {
		name     string
		a, b     Comm
		contains bool // a contains b (on spans)
		crosses  bool
	}{
		{"nested", Comm{0, 7}, Comm{2, 5}, true, false},
		{"crossing", Comm{1, 4}, Comm{3, 6}, false, true},
		{"disjoint", Comm{0, 1}, Comm{4, 5}, false, false},
		{"shared endpoint", Comm{0, 3}, Comm{3, 6}, false, false},
		{"identical span", Comm{2, 5}, Comm{2, 5}, false, false},
		{"touching inner", Comm{0, 5}, Comm{0, 3}, false, false},
	}
	for _, tc := range cases {
		for _, av := range []struct {
			tag string
			a   Comm
		}{{"a-right", tc.a}, {"a-left", flip(tc.a)}} {
			for _, bv := range []struct {
				tag string
				b   Comm
			}{{"b-right", tc.b}, {"b-left", flip(tc.b)}} {
				a, b := av.a, bv.b
				if got := a.Contains(b); got != tc.contains {
					t.Errorf("%s/%s/%s: %s.Contains(%s) = %v, want %v",
						tc.name, av.tag, bv.tag, a, b, got, tc.contains)
				}
				if got := a.Crosses(b); got != tc.crosses {
					t.Errorf("%s/%s/%s: %s.Crosses(%s) = %v, want %v",
						tc.name, av.tag, bv.tag, a, b, got, tc.crosses)
				}
				if a.Crosses(b) != b.Crosses(a) {
					t.Errorf("%s/%s/%s: Crosses not symmetric", tc.name, av.tag, bv.tag)
				}
			}
		}
	}
	// Mirror invariance: reflecting both spans around the line centre must
	// not change either predicate (the hybrid planner relies on this when
	// padr schedules a left-oriented set on the mirrored line).
	const n = 8
	mir := func(c Comm) Comm { return Comm{Src: n - 1 - c.Src, Dst: n - 1 - c.Dst} }
	for _, tc := range cases {
		a, b := tc.a, tc.b
		if a.Contains(b) != mir(a).Contains(mir(b)) || a.Crosses(b) != mir(a).Crosses(mir(b)) {
			t.Errorf("%s: predicates not mirror invariant", tc.name)
		}
	}
}

func TestValidate(t *testing.T) {
	good := NewSet(8, Comm{0, 3}, Comm{4, 5})
	if err := good.Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	cases := []struct {
		name string
		s    *Set
	}{
		{"bad N", NewSet(6, Comm{0, 1})},
		{"tiny N", NewSet(1)},
		{"out of range", NewSet(8, Comm{0, 9})},
		{"negative", NewSet(8, Comm{-1, 3})},
		{"self loop", NewSet(8, Comm{3, 3})},
		{"shared source", NewSet(8, Comm{0, 3}, Comm{0, 5})},
		{"shared dest", NewSet(8, Comm{0, 3}, Comm{1, 3})},
		{"source is dest", NewSet(8, Comm{0, 3}, Comm{3, 5})},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"(.)",
		"(())",
		"()()",
		"((.))..()",
		"................",
		"(((())))",
	}
	for _, expr := range cases {
		s, err := Parse(expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", expr, err)
		}
		got := s.String()
		// The round trip pads idle PEs up to the power-of-two N.
		want := expr + strings.Repeat(".", s.N-len(expr))
		want = strings.ReplaceAll(want, " ", ".")
		if got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", expr, got, want)
		}
		if !s.IsWellNested() {
			t.Errorf("Parse(%q) not well nested", expr)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, expr := range []string{")", "(", "(()", "())", "(x)", "((((((((("} {
		if _, err := Parse(expr); err == nil {
			t.Errorf("Parse(%q): want error", expr)
		}
	}
	if _, err := ParseN("()()", 2); err == nil {
		t.Error("ParseN with undersized N: want error")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad input")
		}
	}()
	MustParse(")(")
}

func TestIsWellNested(t *testing.T) {
	if !MustParse("(()())").IsWellNested() {
		t.Error("(()()) is well nested")
	}
	// Crossing: 0->2 and 1->3.
	crossing := NewSet(4, Comm{0, 2}, Comm{1, 3})
	if crossing.IsWellNested() {
		t.Error("crossing set must not be well nested")
	}
	// Left-oriented communication disqualifies.
	leftward := NewSet(4, Comm{2, 0})
	if leftward.IsWellNested() {
		t.Error("left-oriented set must not be well nested")
	}
	empty := NewSet(4)
	if !empty.IsWellNested() {
		t.Error("empty set is trivially well nested")
	}
}

func TestDepthsAndMaxDepth(t *testing.T) {
	s := MustParse("((())())")
	// comms by closing order: innermost (2,3) depth 2; (1,4)... let's check
	// structurally instead of relying on Comms order.
	depths, err := s.Depths()
	if err != nil {
		t.Fatal(err)
	}
	byComm := map[Comm]int{}
	for i, c := range s.Comms {
		byComm[c] = depths[i]
	}
	want := map[Comm]int{
		{0, 7}: 0,
		{1, 4}: 1,
		{2, 3}: 2,
		{5, 6}: 1,
	}
	for c, d := range want {
		if byComm[c] != d {
			t.Errorf("depth(%s) = %d, want %d", c, byComm[c], d)
		}
	}
	maxd, err := s.MaxDepth()
	if err != nil {
		t.Fatal(err)
	}
	if maxd != 3 {
		t.Errorf("MaxDepth = %d, want 3", maxd)
	}
	empty := NewSet(4)
	if d, err := empty.MaxDepth(); err != nil || d != 0 {
		t.Errorf("empty MaxDepth = %d, %v; want 0, nil", d, err)
	}
	if _, err := NewSet(4, Comm{0, 2}, Comm{1, 3}).MaxDepth(); err == nil {
		t.Error("MaxDepth on crossing set: want error")
	}
}

func TestWidthAndMaxDepthExamples(t *testing.T) {
	cases := []struct {
		expr        string
		width, deep int
	}{
		{"()", 1, 1},
		{"()()()()", 1, 1},
		{"(())", 2, 2},
		{"(()())", 2, 2},
		// A compact 7-chain: its innermost pair (6,7) is sibling-aligned and
		// shares no directed link with the rest, so the link width is 6
		// while the nesting depth is 7.
		{"((((((()))))))", 6, 7},
		{"(()(()))", 2, 3},
		{"........", 0, 0},
	}
	for _, c := range cases {
		s := MustParse(c.expr)
		tr := topology.MustNew(s.N)
		w, err := s.Width(tr)
		if err != nil {
			t.Fatalf("Width(%q): %v", c.expr, err)
		}
		if w != c.width {
			t.Errorf("Width(%q) = %d, want %d", c.expr, w, c.width)
		}
		d, err := s.MaxDepth()
		if err != nil {
			t.Fatal(err)
		}
		if d != c.deep {
			t.Errorf("MaxDepth(%q) = %d, want %d", c.expr, d, c.deep)
		}
		if w > d {
			t.Errorf("%q: width %d exceeds depth %d", c.expr, w, d)
		}
	}
}

func TestWidthTreeMismatch(t *testing.T) {
	s := MustParse("(())")
	if _, err := s.Width(topology.MustNew(8)); err == nil {
		t.Error("tree/set size mismatch: want error")
	}
}

func TestFigure2Example(t *testing.T) {
	// The paper's Fig. 2 shows a right-oriented well-nested set. We encode a
	// faithful 16-PE rendition with nesting ((()))-style plus siblings.
	s := MustParse("((.)((.)..).)(.)")
	if !s.IsWellNested() {
		t.Fatal("figure 2 set must be well nested")
	}
	if !s.IsRightOriented() {
		t.Fatal("figure 2 set must be right oriented")
	}
	w, err := s.Width(topology.MustNew(s.N))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := s.MaxDepth()
	if w > d || w < 1 {
		t.Fatalf("width %d out of range for depth %d", w, d)
	}
}

func TestMirror(t *testing.T) {
	s := NewSet(8, Comm{6, 1}, Comm{5, 3}) // left oriented
	m := s.Mirror()
	if !m.IsRightOriented() {
		t.Fatal("mirror of a left-oriented set must be right oriented")
	}
	if m.Comms[0] != (Comm{1, 6}) || m.Comms[1] != (Comm{2, 4}) {
		t.Fatalf("mirror wrong: %v", m.Comms)
	}
	// Mirroring twice is the identity.
	back := m.Mirror()
	for i := range s.Comms {
		if back.Comms[i] != s.Comms[i] {
			t.Fatalf("double mirror not identity: %v vs %v", back.Comms, s.Comms)
		}
	}
}

func TestDecompose(t *testing.T) {
	s := NewSet(8, Comm{0, 3}, Comm{6, 4}, Comm{1, 2}, Comm{7, 5})
	right, leftM := Decompose(s)
	if len(right.Comms) != 2 || len(leftM.Comms) != 2 {
		t.Fatalf("decompose sizes: %d right, %d left", len(right.Comms), len(leftM.Comms))
	}
	if !right.IsRightOriented() || !leftM.IsRightOriented() {
		t.Fatal("both halves must be right oriented (left half mirrored)")
	}
	if right.Len()+leftM.Len() != s.Len() {
		t.Fatal("decompose must partition the set")
	}
}

func TestGapProfile(t *testing.T) {
	s := MustParse("(())")
	prof := s.GapProfile()
	want := []int{1, 2, 1}
	if len(prof) != len(want) {
		t.Fatalf("profile length %d, want %d", len(prof), len(want))
	}
	for i := range want {
		if prof[i] != want[i] {
			t.Errorf("gap %d: %d, want %d", i, prof[i], want[i])
		}
	}
}

func TestSortedByleft(t *testing.T) {
	s := NewSet(8, Comm{4, 5}, Comm{0, 3}, Comm{1, 2})
	sorted := s.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Src < sorted[i-1].Src {
			t.Fatalf("not sorted: %v", sorted)
		}
	}
	// Sorted must not mutate the receiver.
	if s.Comms[0] != (Comm{4, 5}) {
		t.Fatal("Sorted mutated the set")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := MustParse("(())")
	c := s.Clone()
	c.Comms[0] = Comm{0, 1}
	if s.Comms[0] == (Comm{0, 1}) && c.Comms[0] == s.Comms[0] {
		t.Fatal("Clone shares backing storage")
	}
}

func TestSummary(t *testing.T) {
	s := MustParse("(())")
	sum := s.Summary()
	for _, want := range []string{"4 PEs", "2 comms", "depth 2", "(())"} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary %q missing %q", sum, want)
		}
	}
}
