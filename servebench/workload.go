package main

import (
	"fmt"
	"math/rand"
	"time"

	"cst/internal/comm"
)

// Request kinds a workload sends.
const (
	kindPair  = "pair"
	kindSet   = "set"
	kindDelta = "delta"
)

// workload is one traffic mix: what the load generator sends, over which
// protocol, at what concurrency, against which server flags.
type workload struct {
	name     string
	kind     string
	http     bool          // HTTP/JSON instead of the binary wire protocol
	conns    int           // client connections (sessions for delta)
	inflight int           // requests in flight per connection
	pes      int           // server -pes
	slice    time.Duration // window slice: long enough for 1000 answers
	why      string
}

// The server defaults every workload runs against unless it says otherwise.
const (
	defaultPEs   = 64
	shards       = 2
	batchMax     = 32
	batchWait    = 2 * time.Millisecond
	queueDepth   = 64
	wirePipeline = 64
	setSize      = 16
	deltaPEs     = 1024
	deltaActive  = 64
	deltaOverlap = 0.9
	probeSets    = 1024 // sets in the post-window plan-quality probe
	warmup       = time.Second
)

var workloads = []workload{
	{name: "pair-light", kind: kindPair, http: true, conns: 2, inflight: 1, pes: defaultPEs, slice: 2 * time.Second,
		why: "HTTP pairs, 2 clients x 1 in flight: every batch flushes on the 2 ms timer, so batch policy and HTTP/JSON cost show; bypasses the wire codec, the set planner and delta sessions"},
	{name: "pair-burst", kind: kindPair, conns: 2, inflight: 64, pes: defaultPEs, slice: time.Second,
		why: "wire pairs, 2 conns x 64 in flight: batches fill by size, so wire codec, admission, flush waves, online dispatch and padr runs set the pace; bypasses HTTP, the planner and deltas"},
	{name: "set-random", kind: kindSet, conns: 2, inflight: 1, pes: defaultPEs, slice: time.Second,
		why: "wire 16-comm random sets, 2 x 1 in flight: planner, hybrid, general and comm dominate and no set repeats; bypasses the pool, batcher, online dispatcher and delta sessions"},
	{name: "delta-churn", kind: kindDelta, conns: 2, inflight: 1, pes: deltaPEs, slice: time.Second,
		why: "2 wire delta sessions, 90% overlap, N=1024: incremental padr apply served inline on the worker; bypasses HTTP, the batcher, online dispatch waves and the set planner"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// streamRand returns the seeded source of one connection's request stream.
// Streams differ per seed and per connection and never depend on timing, so
// the traced run can replay exactly what the server was sent.
func streamRand(seed int64, conn int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(conn)*104729 + 1))
}

// pairGen yields random (src, dst) pairs with src != dst.
type pairGen struct {
	rng *rand.Rand
	pes int
}

func (g *pairGen) next() (int, int) {
	src := g.rng.Intn(g.pes)
	dst := g.rng.Intn(g.pes - 1)
	if dst >= src {
		dst++
	}
	return src, dst
}

// setGen yields fresh random two-sided sets.
type setGen struct {
	rng  *rand.Rand
	pes  int
	size int
}

func (g *setGen) next() *comm.Set {
	s, err := comm.RandomTwoSided(g.rng, g.pes, g.size)
	if err != nil {
		// The parameters are constants that fit the fabric; only a bug
		// reaches here.
		panic(fmt.Sprintf("servebench: set generator: %v", err))
	}
	return s
}

// deltaVariants are the four-leaf-slot shapes a delta slot rotates through.
var deltaVariants = [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}, {1, 3}}

// deltaGen yields one session's mutations over a sparse slot set: the first
// call opens the session with every active slot, each later call rotates k
// distinct slots to another variant (k removes plus k adds, k set by the
// overlap). It tracks the session set so answers can be checked.
type deltaGen struct {
	rng    *rand.Rand
	active int
	step   int
	k      int
	cur    []int
	opened bool
}

func newDeltaGen(rng *rand.Rand, pes, active int, overlap float64) *deltaGen {
	slots := pes / 4
	k := int(float64(active)*(1-overlap) + 0.5)
	if k < 1 {
		k = 1
	}
	return &deltaGen{rng: rng, active: active, step: slots / active, k: k, cur: make([]int, active)}
}

func (g *deltaGen) base(i int) int { return 4 * i * g.step }

func (g *deltaGen) comm(i int) comm.Comm {
	v := deltaVariants[g.cur[i]]
	return comm.Comm{Src: g.base(i) + v[0], Dst: g.base(i) + v[1]}
}

func (g *deltaGen) next() (remove, add []comm.Comm) {
	if !g.opened {
		g.opened = true
		for i := 0; i < g.active; i++ {
			add = append(add, g.comm(i))
		}
		return nil, add
	}
	for _, i := range g.rng.Perm(g.active)[:g.k] {
		remove = append(remove, g.comm(i))
		g.cur[i] = (g.cur[i] + 1 + g.rng.Intn(len(deltaVariants)-1)) % len(deltaVariants)
		add = append(add, g.comm(i))
	}
	return remove, add
}

// set returns the session's current communication set.
func (g *deltaGen) set(pes int) *comm.Set {
	s := &comm.Set{N: pes}
	for i := 0; i < g.active; i++ {
		s.Comms = append(s.Comms, g.comm(i))
	}
	return s
}

// sessionID is connection conn's delta session; consecutive ids land on
// different shards (the server pins session % shards).
func sessionID(seed int64, conn int) uint64 {
	return uint64(seed&0xffff)<<8 | uint64(conn)
}

// probeGen is the seeded source of the plan-quality probe, disjoint from
// every connection stream.
func probeGen(seed int64) *setGen {
	return &setGen{rng: rand.New(rand.NewSource(seed*7919 - 17)), pes: defaultPEs, size: setSize}
}
