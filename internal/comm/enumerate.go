package comm

import "fmt"

// EnumerateWellNested calls fn with every right-oriented well-nested set
// over n PEs having at most maxComms communications, exactly once each
// (including the empty set). Sets are generated in a canonical order; fn
// receives a fresh Set it may retain. Returning a non-nil error from fn
// stops the enumeration and propagates the error.
//
// The count grows as sum_m C(n, 2m)·Catalan(m): all 323 sets at n=8, about
// 44k at n=16 with maxComms=3 — small enough that the test suite verifies
// the scheduling engine on every single instance at small scale.
func EnumerateWellNested(n, maxComms int, fn func(*Set) error) error {
	if n < 2 || n&(n-1) != 0 {
		return fmt.Errorf("comm: n must be a power of two >= 2, got %d", n)
	}
	if maxComms < 0 {
		maxComms = 0
	}
	// state[i]: '.'=idle, '('=open, ')'=close. Depth-first over positions
	// with balance tracking.
	buf := make([]byte, n)
	var rec func(pos, open, used int) error
	rec = func(pos, open, used int) error {
		if pos == n {
			if open != 0 {
				return nil
			}
			set, err := ParseN(string(buf), n)
			if err != nil {
				return fmt.Errorf("comm: enumeration produced invalid %q: %v", buf, err)
			}
			return fn(set)
		}
		// Prune: remaining positions must fit the open spans.
		if open > n-pos {
			return nil
		}
		buf[pos] = '.'
		if err := rec(pos+1, open, used); err != nil {
			return err
		}
		if used < maxComms {
			buf[pos] = '('
			if err := rec(pos+1, open+1, used+1); err != nil {
				return err
			}
		}
		if open > 0 {
			buf[pos] = ')'
			if err := rec(pos+1, open-1, used); err != nil {
				return err
			}
		}
		buf[pos] = '.'
		return nil
	}
	return rec(0, 0, 0)
}
