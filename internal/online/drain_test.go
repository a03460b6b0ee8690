package online

import (
	"testing"

	"cst/internal/comm"
	"cst/internal/fault"
)

// TestDrainLosesNothing pins the queue's accounting: a simulator carrying
// queued batches, mid-stream arrivals and a poisoned batch (quarantined
// after exhausting its dispatch attempts) is quiesced, and every submitted
// request must surface exactly once — either as a completion or as a
// quarantine record — with all busyPE reservations released.
func TestDrainLosesNothing(t *testing.T) {
	// Freeze the root switch for the first MaxDispatchAttempts engine runs:
	// the first dispatched batch fails every attempt and is quarantined;
	// every later run is clean.
	var plan []fault.Fault
	for run := 0; run < MaxDispatchAttempts; run++ {
		plan = append(plan, fault.Fault{
			Kind: fault.FreezeSwitch, Node: 1, Run: run, Round: 0, Duration: 64,
		})
	}
	s, err := New(16, WithFaults(fault.New(plan)))
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		src, dst, arrival int
	}
	submitted := map[key]bool{}
	submit := func(comms ...comm.Comm) {
		t.Helper()
		for _, c := range comms {
			if err := s.Submit(c); err != nil {
				t.Fatalf("submit %s: %v", c, err)
			}
			submitted[key{c.Src, c.Dst, s.Now()}] = true
		}
	}

	// quiesce dispatches until the queue is empty, tolerating quarantine
	// errors (the batch is expelled and recorded in Stats.Quarantined). A
	// dispatch that errors without shrinking the queue would wedge the
	// loop, so guard progress.
	quiesce := func() {
		t.Helper()
		for s.QueueLen() > 0 {
			before := s.QueueLen()
			_, err := s.Dispatch()
			if err != nil && s.QueueLen() >= before {
				t.Fatalf("dispatch made no progress (queue %d): %v", before, err)
			}
		}
	}

	// First wave: a nested rightward group plus leftward traffic. The
	// rightward batch is dominant, dispatches first and gets quarantined.
	submit(
		comm.Comm{Src: 0, Dst: 7},
		comm.Comm{Src: 1, Dst: 6},
		comm.Comm{Src: 2, Dst: 5},
		comm.Comm{Src: 12, Dst: 9},
		comm.Comm{Src: 15, Dst: 13},
	)
	if _, err := s.Dispatch(); err == nil {
		t.Fatal("first dispatch: want quarantine error, got nil")
	}

	// Mid-stream: the leftward requests are still queued ("in flight"
	// between dispatches) when more work arrives on the freed PEs.
	if s.QueueLen() == 0 {
		t.Fatal("expected leftward requests still queued after quarantine")
	}
	submit(
		comm.Comm{Src: 0, Dst: 3},
		comm.Comm{Src: 4, Dst: 7},
		comm.Comm{Src: 8, Dst: 11},
	)

	// Consume the incremental view mid-stream; the remainder is taken
	// after the final quiesce. Concatenated they must cover everything.
	var completed []Completed
	completed = append(completed, s.TakeCompleted()...)

	quiesce()
	submit(comm.Comm{Src: 5, Dst: 2}, comm.Comm{Src: 10, Dst: 14})
	quiesce()
	completed = append(completed, s.TakeCompleted()...)

	st := s.Finish()
	quarantined := st.Quarantined
	if st.Leftover != 0 {
		t.Fatalf("leftover = %d, want 0", st.Leftover)
	}
	if got := busyPEs(s); got != 0 {
		t.Fatalf("busy PEs after drain = %d, want 0 (leaked reservations)", got)
	}
	if len(completed) != len(st.Completed) {
		t.Fatalf("incremental view saw %d records, stats have %d", len(completed), len(st.Completed))
	}

	// Every submitted request resolves exactly once.
	resolved := map[key]string{}
	note := func(k key, how string) {
		t.Helper()
		if !submitted[k] {
			t.Fatalf("%s record %v was never submitted", how, k)
		}
		if prev, dup := resolved[k]; dup {
			t.Fatalf("request %v double-counted: %s and %s", k, prev, how)
		}
		resolved[k] = how
	}
	for _, c := range completed {
		note(key{c.Comm.Src, c.Comm.Dst, c.Arrival}, "completed")
	}
	for _, r := range quarantined {
		note(key{r.Comm.Src, r.Comm.Dst, r.Arrival}, "quarantined")
	}
	if len(resolved) != len(submitted) {
		t.Fatalf("resolved %d of %d submitted requests", len(resolved), len(submitted))
	}
	if len(quarantined) == 0 {
		t.Fatal("fault plan produced no quarantine; test lost its poisoned-batch coverage")
	}

	// The freed PEs are genuinely reusable: every PE accepts new work.
	for pe := 0; pe < 16; pe += 2 {
		if err := s.Submit(comm.Comm{Src: pe, Dst: pe + 1}); err != nil {
			t.Fatalf("PE %d not reusable after drain: %v", pe, err)
		}
	}
	quiesce()
	if got := busyPEs(s); got != 0 {
		t.Fatalf("busy PEs after reuse drain = %d, want 0", got)
	}
}

// TestTakeCursorsAreIncremental pins TakeCompleted's cursor semantics on a
// clean run: records are handed out exactly once, Stats keeps everything.
func TestTakeCursorsAreIncremental(t *testing.T) {
	s, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for round := 0; round < 3; round++ {
		for _, c := range []comm.Comm{{Src: 0, Dst: 3}, {Src: 4, Dst: 6}} {
			if err := s.Submit(c); err != nil {
				t.Fatal(err)
			}
			total++
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		if got := len(s.TakeCompleted()); got != 2 {
			t.Fatalf("round %d: TakeCompleted = %d records, want 2", round, got)
		}
		if got := len(s.TakeCompleted()); got != 0 {
			t.Fatalf("round %d: second TakeCompleted = %d records, want 0", round, got)
		}
	}
	st := s.Finish()
	if got := len(st.Completed); got != total {
		t.Fatalf("stats retain %d completions, want %d", got, total)
	}
	if got := len(st.Quarantined); got != 0 {
		t.Fatalf("quarantines on a clean run = %d, want 0", got)
	}
}

// busyPEs counts the PEs reserved by queued requests.
func busyPEs(s *Simulator) int {
	n := 0
	for _, b := range s.busyPE {
		if b {
			n++
		}
	}
	return n
}
