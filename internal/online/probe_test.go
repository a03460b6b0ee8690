//go:build !race

// The count probe is deterministic and single-goroutine, so the race
// detector has nothing to find in it and would only multiply its time.

package online

import (
	"fmt"
	"math/rand"
	"testing"

	"cst/internal/comm"
)

// probePairs draws n pairs on pes PEs the way the serving benchmark's
// pair workloads do: two connections, each a seeded stream of random
// src != dst pairs, interleaved round-robin.
func probePairs(seed int64, pes, n int) []comm.Comm {
	const conns = 2
	rngs := make([]*rand.Rand, conns)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed*7919 + int64(c)*104729 + 1))
	}
	out := make([]comm.Comm, n)
	for i := range out {
		rng := rngs[i%conns]
		src, dst := rng.Intn(pes), rng.Intn(pes-1)
		if dst >= src {
			dst++
		}
		out[i] = comm.Comm{Src: src, Dst: dst}
	}
	return out
}

// waveFlush serves a batch through the queue API in endpoint-disjoint
// waves: submit every request whose endpoints are free, dispatch until the
// queue is empty, and repeat with the requests deferred for a busy
// endpoint. A deferred request arrives at its wave's start. It returns the
// batch's completion records in completion order.
func waveFlush(t *testing.T, s *Simulator, batch []comm.Comm) []Completed {
	t.Helper()
	var done []Completed
	for pending := batch; len(pending) > 0; {
		var deferred []comm.Comm
		for _, c := range pending {
			if s.Busy(c.Src, c.Dst) || s.Submit(c) != nil {
				deferred = append(deferred, c)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		done = append(done, s.TakeCompleted()...)
		s.Recycle()
		pending = deferred
	}
	return done
}

// probeCounts are the per-batch fabric counts of one serving strategy over
// a run of batches on one persistent shard.
type probeCounts struct {
	runs, rounds, unitsPerPair float64
	hottest                    int
}

func countsOf(s *Simulator, batches, pairs int) probeCounts {
	st := s.Finish()
	return probeCounts{
		runs:         float64(st.Batches) / float64(batches),
		rounds:       float64(st.Rounds) / float64(batches),
		unitsPerPair: float64(st.Report.TotalUnits()) / float64(pairs),
		hottest:      st.Report.MaxUnits(),
	}
}

// TestServeCountProbe serves 2,000 seeded batches of each size on one
// persistent N=64 shard, once through Serve and once in waves through the
// queue API. A 1-request batch must come out the same request by request;
// at 27 and 32 requests (the pair-burst shape) Serve must use fewer runs,
// fewer rounds, fewer units per pair and a cooler hottest switch. Sizes 2
// and 8 are reported, not gated.
func TestServeCountProbe(t *testing.T) {
	for _, seed := range []int64{1, 42, 123, 456} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, size := range []int{1, 2, 8, 27, 32} {
				probeSize(t, seed, size)
			}
		})
	}
}

// probeSize runs one probe cell: 2,000 batches of size pairs each on one
// persistent N=64 shard per strategy.
func probeSize(t *testing.T, seed int64, size int) {
	const pes, batches = 64, 2000
	pairs := probePairs(seed, pes, batches*size)
	served, err := New(pes)
	if err != nil {
		t.Fatal(err)
	}
	waves, err := New(pes)
	if err != nil {
		t.Fatal(err)
	}
	var out []Outcome
	for b := 0; b < batches; b++ {
		batch := pairs[b*size : (b+1)*size]
		var arrival int
		arrival, out = served.Serve(batch, out)
		recs := waveFlush(t, waves, batch)
		if size != 1 {
			continue
		}
		o, r := out[0], recs[0]
		if o.Err != nil || arrival != r.Arrival || o.Dispatched != r.Dispatched || o.Finished != r.Finished {
			t.Fatalf("seed %d batch %d: Serve = arrival %d %+v, waves = %+v", seed, b, arrival, o, r)
		}
	}
	got, want := countsOf(served, batches, len(pairs)), countsOf(waves, batches, len(pairs))
	t.Logf("seed %3d size %2d: runs/batch %.2f -> %.2f, rounds/batch %.2f -> %.2f, units/pair %.3f -> %.3f, hottest %d -> %d",
		seed, size, want.runs, got.runs, want.rounds, got.rounds, want.unitsPerPair, got.unitsPerPair, want.hottest, got.hottest)
	switch size {
	case 1:
		if got != want {
			t.Errorf("seed %d size 1: Serve counts %+v, waves %+v; want equal", seed, got, want)
		}
	case 27, 32:
		if got.runs >= want.runs || got.rounds >= want.rounds || got.unitsPerPair >= want.unitsPerPair || got.hottest >= want.hottest {
			t.Errorf("seed %d size %d: Serve counts %+v not all below the waves' %+v", seed, size, got, want)
		}
	}
}

// BenchmarkServeBatch times the pair-burst shape in process: batches of 32
// probe pairs (seed 1) on one persistent N=64 shard, served through Serve
// one batch per op, cycling over 256 batches. Steady state allocates
// nothing.
func BenchmarkServeBatch(b *testing.B) {
	const pes, size, batches = 64, 32, 256
	pairs := probePairs(1, pes, size*batches)
	s, err := New(pes)
	if err != nil {
		b.Fatal(err)
	}
	batch := func(i int) []comm.Comm {
		i %= batches
		return pairs[i*size : (i+1)*size]
	}
	var out []Outcome
	for i := 0; i < batches; i++ {
		_, out = s.Serve(batch(i), out)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out = s.Serve(batch(i), out)
	}
	b.StopTimer()
	for i, o := range out {
		if o.Err != nil {
			b.Fatalf("request %d: %v", i, o.Err)
		}
	}
}
