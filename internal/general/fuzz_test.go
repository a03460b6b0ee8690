package general

import (
	"cmp"
	"slices"
	"testing"

	"cst/internal/comm"
	"cst/internal/sched"
	"cst/internal/topology"
)

// FuzzOccupancyFirstFit feeds raw byte pairs as the endpoints of an
// arbitrary mixed set and checks sched.FirstFit's occupancy table against
// the conflict-graph first-fit it replaces: assignGreedy on Graph in
// source order, descending when no communication is rightward. Both must
// give the same rounds with the same contents in the same order, and the
// table's width must be the graph's; one sched.FirstFitter reused across
// the whole run must agree too. Graph's adjacency lists must match a
// brute-force scan.
func FuzzOccupancyFirstFit(f *testing.F) {
	f.Add([]byte{0, 5, 3, 8, 12, 6, 14, 9}, uint8(0))
	f.Add([]byte{0, 8, 1, 9, 2, 10, 3, 11}, uint8(1))
	f.Add([]byte{10, 15, 14, 1, 12, 9, 6, 2, 8, 11, 3, 4, 0, 13, 7, 5}, uint8(0))
	f.Add([]byte{}, uint8(2))
	f.Add([]byte{3, 0, 5, 1, 6, 4}, uint8(0))
	var ff sched.FirstFitter
	f.Fuzz(func(t *testing.T, pairs []byte, size uint8) {
		n := 8 << (size % 4) // 8 to 64 PEs
		s := &comm.Set{N: n}
		for i := 0; i+1 < len(pairs) && len(s.Comms) < n/2; i += 2 {
			s.Comms = append(s.Comms, comm.Comm{Src: int(pairs[i]) % n, Dst: int(pairs[i+1]) % n})
		}
		if s.Validate() != nil {
			return
		}
		tr := topology.MustNew(n)
		got, width := sched.FirstFit(tr, s)

		g := Graph(tr, s)
		order := identity(s.Len())
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(s.Comms[a].Src, s.Comms[b].Src) })
		if !slices.ContainsFunc(s.Comms, comm.Comm.RightOriented) {
			slices.Reverse(order)
		}
		want := sched.FromRounds(s, assignGreedy(g, order))
		if got.String() != want.String() {
			t.Fatalf("set %v: occupancy first-fit\n%sgraph first-fit\n%s", s.Comms, got, want)
		}
		if width != g.width {
			t.Fatalf("set %v: occupancy width %d, graph width %d", s.Comms, width, g.width)
		}
		if reused, w := ff.FirstFit(tr, s); reused.String() != got.String() || w != width || reused.Set.N != n || !slices.Equal(reused.Set.Comms, s.Comms) {
			t.Fatalf("set %v: reused first-fit (width %d)\n%sone-shot (width %d)\n%s", s.Comms, w, reused, width, got)
		}
		if err := got.Verify(tr); err != nil {
			t.Fatalf("set %v: %v", s.Comms, err)
		}
		// Graph lists each circuit sharing a directed link with i once,
		// in ascending order.
		links := make([]map[topology.Edge]bool, s.Len())
		for i, c := range s.Comms {
			links[i] = map[topology.Edge]bool{}
			_ = tr.EachPathEdge(c.Src, c.Dst, func(e topology.Edge) { links[i][e] = true })
		}
		for i := range s.Comms {
			var adj []int
			for j := range s.Comms {
				if j == i {
					continue
				}
				for e := range links[j] {
					if links[i][e] {
						adj = append(adj, j)
						break
					}
				}
			}
			if !slices.Equal(g.Adj[i], adj) {
				t.Fatalf("set %v: Adj[%d] = %v, want %v", s.Comms, i, g.Adj[i], adj)
			}
		}
	})
}
