package comm

import (
	"fmt"
	"runtime"
	"testing"
)

// validateOracle is Set.Validate as it was before the Validator: one Go
// map from PE to the role it took.
func validateOracle(s *Set) error {
	if s.N < 2 || s.N&(s.N-1) != 0 {
		return fmt.Errorf("comm: N must be a power of two >= 2, got %d", s.N)
	}
	role := make(map[int]string, 2*len(s.Comms))
	for _, c := range s.Comms {
		if c.Src < 0 || c.Src >= s.N || c.Dst < 0 || c.Dst >= s.N {
			return fmt.Errorf("comm: %s out of range for N=%d", c, s.N)
		}
		if c.Src == c.Dst {
			return fmt.Errorf("comm: self loop at PE %d", c.Src)
		}
		if r, ok := role[c.Src]; ok {
			return fmt.Errorf("comm: PE %d already a %s, cannot also source %s", c.Src, r, c)
		}
		role[c.Src] = "source"
		if r, ok := role[c.Dst]; ok {
			return fmt.Errorf("comm: PE %d already a %s, cannot also receive %s", c.Dst, r, c)
		}
		role[c.Dst] = "destination"
	}
	return nil
}

// Validate and one Validator reused across every case give the oracle's
// verdict and error text: wrong n, out-of-range and self-loop pairs, a
// communication listed twice, and every way a PE takes two roles, first
// or after other errors in the set.
func TestValidateMatchesOracle(t *testing.T) {
	cases := []struct {
		name  string
		s     *Set
		valid bool
	}{
		{"valid", NewSet(8, Comm{0, 3}, Comm{4, 5}, Comm{7, 6}), true},
		{"valid, empty", NewSet(2), true},
		{"valid, full", NewSet(4, Comm{0, 3}, Comm{2, 1}), true},
		{"n not a power of two", NewSet(6, Comm{0, 1}), false},
		{"n = 1", NewSet(1), false},
		{"n = 0", NewSet(0), false},
		{"negative n", NewSet(-8, Comm{0, 1}), false},
		{"out of range", NewSet(8, Comm{0, 9}), false},
		{"negative", NewSet(8, Comm{-1, 3}), false},
		{"source out of range", NewSet(8, Comm{1, 2}, Comm{8, 3}), false},
		{"self loop", NewSet(8, Comm{3, 3}), false},
		{"self loop out of range", NewSet(8, Comm{9, 9}), false},
		{"listed twice", NewSet(8, Comm{0, 3}, Comm{1, 2}, Comm{0, 3}), false},
		{"shared source", NewSet(8, Comm{0, 3}, Comm{0, 5}), false},
		{"shared destination", NewSet(8, Comm{0, 3}, Comm{1, 3}), false},
		{"source is a destination", NewSet(8, Comm{0, 3}, Comm{3, 5}), false},
		{"destination is a source", NewSet(8, Comm{3, 5}, Comm{0, 3}), false},
		{"destination is a source, same pair", NewSet(8, Comm{3, 5}, Comm{5, 3}), false},
		{"role clash before a self loop", NewSet(8, Comm{0, 3}, Comm{1, 3}, Comm{4, 4}), false},
		{"self loop before a role clash", NewSet(8, Comm{4, 4}, Comm{0, 3}, Comm{1, 3}), false},
		{"role clash before out of range", NewSet(8, Comm{2, 6}, Comm{6, 1}, Comm{0, 11}), false},
		{"two clashes", NewSet(16, Comm{0, 9}, Comm{5, 6}, Comm{7, 6}, Comm{0, 2}), false},
	}
	var v Validator
	for _, tc := range cases {
		want := validateOracle(tc.s)
		if (want == nil) != tc.valid {
			t.Errorf("%s: the oracle says %v", tc.name, want)
		}
		for _, got := range []error{tc.s.Validate(), v.Validate(tc.s)} {
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: Validate says %v, the oracle %v", tc.name, got, want)
			}
		}
	}
}

// A one-shot Validate of a huge-N set gets its error without a table the
// size of N.
func TestValidateHugeN(t *testing.T) {
	s := NewSet(1<<40, Comm{0, 1 << 39}, Comm{1 << 38, 1 << 39})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := s.Validate()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("shared destination accepted")
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 4<<10 {
		t.Errorf("Validate allocated %d bytes for 2 communications", b)
	}
}

// FuzzValidateMatchesOracle turns bytes into sets of up to 16
// communications, endpoints possibly out of range, looping or shared, on
// n from a byte; one Validator checks every set and must agree with the
// oracle word for word.
func FuzzValidateMatchesOracle(f *testing.F) {
	f.Add(uint8(16), []byte{0, 5, 3, 8, 12, 6})
	f.Add(uint8(16), []byte{0, 5, 5, 8})
	f.Add(uint8(8), []byte{0, 5, 3, 3})
	f.Add(uint8(6), []byte{0, 1})
	f.Add(uint8(8), []byte{0, 200, 1, 2})
	var v Validator
	f.Fuzz(func(t *testing.T, n uint8, ends []byte) {
		s := &Set{N: int(n)}
		for i := 0; i+1 < len(ends) && len(s.Comms) < 16; i += 2 {
			s.Comms = append(s.Comms, Comm{Src: int(int8(ends[i])) % 20, Dst: int(int8(ends[i+1])) % 20})
		}
		if want, got := validateOracle(s), v.Validate(s); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("set %v on n=%d: Validate says %v, the oracle %v", s.Comms, s.N, got, want)
		}
	})
}
