package comm

import (
	"testing"
)

func TestEnumerateCountsMatchTheory(t *testing.T) {
	// sum over m of C(n,2m) * Catalan(m).
	cases := []struct {
		n, maxM, want int
	}{
		{2, 1, 2}, // "" and "()"
		{4, 2, 1 + 6 + 2},
		{8, 4, 1 + 28 + 70*2 + 28*5 + 14},
		{8, 1, 1 + 28},
	}
	count := func(n, maxM int) (int, error) {
		got := 0
		err := EnumerateWellNested(n, maxM, func(*Set) error {
			got++
			return nil
		})
		return got, err
	}
	for _, c := range cases {
		got, err := count(c.n, c.maxM)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Count(%d,%d) = %d, want %d", c.n, c.maxM, got, c.want)
		}
	}
	if _, err := count(6, 1); err == nil {
		t.Error("non power of two: want error")
	}
}

func TestEnumerateUniqueAndValid(t *testing.T) {
	seen := map[string]bool{}
	err := EnumerateWellNested(8, 4, func(s *Set) error {
		key := s.String()
		if seen[key] {
			t.Fatalf("duplicate %q", key)
		}
		seen[key] = true
		if !s.IsWellNested() {
			t.Fatalf("not well nested: %q", key)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 323 {
		t.Fatalf("enumerated %d sets, want 323", len(seen))
	}
}
