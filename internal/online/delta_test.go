package online

import (
	"errors"
	"testing"

	"cst/internal/comm"
	"cst/internal/fault"
	"cst/internal/obs"
	"cst/internal/padr"
	"cst/internal/topology"
	"cst/internal/xbar"
)

// TestDeltaSessionLifecycle walks one session through open, warm applies
// and close: the opening delta runs from scratch (Fallback), later deltas
// take the incremental path, and the reported rounds always match a
// reference from-scratch engine over the same set.
func TestDeltaSessionLifecycle(t *testing.T) {
	const n = 16
	reg := obs.New()
	s, err := New(n, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}

	res, err := s.ApplyDelta(7, nil, []comm.Comm{{Src: 0, Dst: 7}, {Src: 1, Dst: 2}})
	if err != nil {
		t.Fatalf("opening delta: %v", err)
	}
	if !res.Fallback || res.Size != 2 {
		t.Fatalf("opening delta: %+v, want fallback with size 2", res)
	}
	if s.DeltaSessions() != 1 {
		t.Fatalf("sessions = %d, want 1", s.DeltaSessions())
	}

	res, err = s.ApplyDelta(7, []comm.Comm{{Src: 1, Dst: 2}}, []comm.Comm{{Src: 3, Dst: 6}, {Src: 4, Dst: 5}})
	if err != nil {
		t.Fatalf("warm delta: %v", err)
	}
	if res.Fallback {
		t.Fatalf("warm delta fell back: %+v", res)
	}
	if res.Size != 3 {
		t.Fatalf("size = %d, want 3", res.Size)
	}

	// The warm result must match a from-scratch engine on the same set.
	tr, err := topology.New(n)
	if err != nil {
		t.Fatal(err)
	}
	set := &comm.Set{N: n, Comms: []comm.Comm{{Src: 0, Dst: 7}, {Src: 3, Dst: 6}, {Src: 4, Dst: 5}}}
	ref, err := padr.New(tr, set)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunRounds()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != want {
		t.Fatalf("warm delta rounds = %d, from-scratch reference = %d", res.Rounds, want)
	}

	if got := reg.Counter("cst_delta_applied_total", "").Value(); got != 1 {
		t.Fatalf("applied counter = %d, want 1", got)
	}
	if got := reg.Counter("cst_delta_fallbacks_total", "").Value(); got != 1 {
		t.Fatalf("fallback counter = %d, want 1", got)
	}

	s.CloseDeltaSession(7)
	if s.DeltaSessions() != 0 {
		t.Fatalf("sessions after close = %d, want 0", s.DeltaSessions())
	}
}

// TestDeltaSessionRejects pins the 400-class behavior: an invalid delta
// leaves the session exactly as it was — still warm, same set — and is
// reported with padr.ErrDelta so the serving layer can map it.
func TestDeltaSessionRejects(t *testing.T) {
	s, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyDelta(1, nil, []comm.Comm{{Src: 0, Dst: 3}}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name        string
		remove, add []comm.Comm
	}{
		{"remove absent", []comm.Comm{{Src: 4, Dst: 5}}, nil},
		{"left oriented add", nil, []comm.Comm{{Src: 9, Dst: 8}}},
		{"crossing add", nil, []comm.Comm{{Src: 2, Dst: 5}}},
		{"endpoint conflict", nil, []comm.Comm{{Src: 0, Dst: 1}}},
	}
	for _, tc := range cases {
		res, err := s.ApplyDelta(1, tc.remove, tc.add)
		if !errors.Is(err, padr.ErrDelta) {
			t.Fatalf("%s: err = %v, want padr.ErrDelta", tc.name, err)
		}
		if res.Size != 1 {
			t.Fatalf("%s: size = %d, want untouched session of 1", tc.name, res.Size)
		}
	}

	// The session survived every rejection warm: the next good delta is
	// served incrementally.
	res, err := s.ApplyDelta(1, nil, []comm.Comm{{Src: 4, Dst: 7}})
	if err != nil || res.Fallback {
		t.Fatalf("delta after rejections: %+v, %v — want warm success", res, err)
	}

	// Removes of an unknown session reject instead of opening it.
	if _, err := s.ApplyDelta(99, []comm.Comm{{Src: 0, Dst: 3}}, nil); !errors.Is(err, padr.ErrDelta) {
		t.Fatalf("remove against fresh session: %v, want padr.ErrDelta", err)
	}
	if s.DeltaSessions() != 1 {
		t.Fatalf("rejected open leaked a session: %d open", s.DeltaSessions())
	}
}

// TestDeltaSessionCap pins the 429 path: the cap bounds open sessions,
// and closing one frees a slot.
func TestDeltaSessionCap(t *testing.T) {
	s, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	s.deltaCap = 2
	for id := uint64(0); id < 2; id++ {
		if _, err := s.ApplyDelta(id, nil, nil); err != nil {
			t.Fatalf("session %d: %v", id, err)
		}
	}
	if _, err := s.ApplyDelta(2, nil, nil); !errors.Is(err, ErrSessionsFull) {
		t.Fatalf("over cap: %v, want ErrSessionsFull", err)
	}
	s.CloseDeltaSession(0)
	if _, err := s.ApplyDelta(2, nil, nil); err != nil {
		t.Fatalf("after close: %v", err)
	}
}

// TestDeltaSessionIsolation pins the fabric invariant: a delta session
// schedules over its own private crossbars and never configures (or even
// meter-touches) the simulator's physical switches, which may hold
// in-flight batch circuits.
func TestDeltaSessionIsolation(t *testing.T) {
	const n = 16
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	// Put a live batch circuit on the fabric, then leave it held.
	if err := s.Submit(comm.Comm{Src: 0, Dst: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Dispatch(); err != nil {
		t.Fatal(err)
	}
	before := make([]xbar.Config, len(s.switches))
	units := make([]int, len(s.switches))
	for i, sw := range s.switches {
		if sw != nil {
			before[i] = sw.Config()
			units[i] = sw.Units()
		}
	}

	if _, err := s.ApplyDelta(1, nil, []comm.Comm{{Src: 0, Dst: 15}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyDelta(1, []comm.Comm{{Src: 0, Dst: 15}}, []comm.Comm{{Src: 2, Dst: 13}}); err != nil {
		t.Fatal(err)
	}

	for i, sw := range s.switches {
		if sw == nil {
			continue
		}
		if sw.Config() != before[i] {
			t.Fatalf("physical switch %d reconfigured by a delta session", i)
		}
		if sw.Units() != units[i] {
			t.Fatalf("physical switch %d metered by a delta session", i)
		}
	}
}

// TestDeltaFaultFallback drives a faulted incremental apply: the injected
// Phase 1 fault voids the warm snapshot, the session recovers with a
// clean from-scratch run over the canonical mutated set, and the result
// is flagged Fallback.
func TestDeltaFaultFallback(t *testing.T) {
	const n = 16
	tr, err := topology.New(n)
	if err != nil {
		t.Fatal(err)
	}
	// Run 0 is the session-opening run, run 1 the incremental apply: only
	// the apply is faulted, so the fallback (run 2) completes cleanly. The
	// dropped word sits at leaf 8 — on the dirty path of the second
	// delta's add, so the incremental re-float actually trips over it.
	inj := fault.New([]fault.Fault{{Kind: fault.DropWord, Node: tr.Leaf(8), Run: 1, Round: fault.Phase1}})
	s, err := New(n, WithFaults(inj))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyDelta(1, nil, []comm.Comm{{Src: 0, Dst: 7}}); err != nil {
		t.Fatal(err)
	}
	res, err := s.ApplyDelta(1, nil, []comm.Comm{{Src: 8, Dst: 15}})
	if err != nil {
		t.Fatalf("faulted delta did not recover: %v", err)
	}
	if !res.Fallback {
		t.Fatalf("faulted delta served warm: %+v — the fault never fired?", res)
	}
	if res.Size != 2 {
		t.Fatalf("size = %d, want 2", res.Size)
	}

	// After the clean fallback the session is warm again.
	res, err = s.ApplyDelta(1, []comm.Comm{{Src: 8, Dst: 15}}, nil)
	if err != nil || res.Fallback {
		t.Fatalf("post-recovery delta: %+v, %v — want warm success", res, err)
	}
}
