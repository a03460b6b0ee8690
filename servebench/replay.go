package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cst/internal/comm"
	"cst/internal/general"
	"cst/internal/hybrid"
	"cst/internal/obs"
	"cst/internal/online"
	"cst/internal/padr"
	"cst/internal/serve"
	"cst/internal/topology"
	"cst/internal/wire"
)

// protoWire is serve's protocol index for the wire transport, the one the
// set workload plans over.
const protoWire = 1

// Time budgets of the in-process replay, per layer group.
const (
	wireBudget   = 400 * time.Millisecond
	serveBudget  = 600 * time.Millisecond // per serve entry point
	onlineBudget = 500 * time.Millisecond
	padrBudget   = 500 * time.Millisecond
	setBudget    = time.Second
)

// replay feeds a workload's seeded request streams through each layer's
// public functions in-process, with a span around every call. A layer the
// workload's requests never reach reports zero for its metrics.
//
// The serve-layer objects get the observability cstserved gives them by
// default: a registry and a ring-only tracer sampling nothing, with a
// flight recorder attached.
type replay struct {
	w    workload
	seed int64
	rec  *recorder
	m    map[string]float64
	reg  *obs.Registry
	tr   *obs.Tracer
}

func runReplay(w workload, seed int64) (*replay, error) {
	p := &replay{w: w, seed: seed, rec: newRecorder(), m: map[string]float64{},
		reg: obs.New(), tr: obs.NewTracer(nil, 4096)}
	p.tr.SetSampleRate(0)
	p.tr.SetFlight(obs.NewFlightRecorder(obs.DefaultFlightK))
	for _, step := range []func() error{p.wireLayer, p.serveLayer, p.onlineLayer, p.padrLayer, p.setLayers} {
		if err := step(); err != nil {
			return p, err
		}
	}
	return p, nil
}

// mallocs reports the heap allocation counters.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// pairStream returns the first n pairs of connection conn's stream.
func (p *replay) pairStream(conn, n int) []comm.Comm {
	gen := &pairGen{rng: streamRand(p.seed, conn), pes: p.w.pes}
	out := make([]comm.Comm, n)
	for i := range out {
		out[i].Src, out[i].Dst = gen.next()
	}
	return out
}

// interleavedPairs merges the connections' streams round-robin, the order
// a server sees them in when the connections run at the same pace.
func (p *replay) interleavedPairs(n int) []comm.Comm {
	streams := make([][]comm.Comm, p.w.conns)
	for c := range streams {
		streams[c] = p.pairStream(c, n/p.w.conns+1)
	}
	out := make([]comm.Comm, 0, n)
	for i := 0; len(out) < n; i++ {
		out = append(out, streams[i%p.w.conns][i/p.w.conns])
	}
	return out
}

func (p *replay) setStream(conn, n int) []*comm.Set {
	gen := &setGen{rng: streamRand(p.seed, conn), pes: p.w.pes, size: setSize}
	out := make([]*comm.Set, n)
	for i := range out {
		out[i] = gen.next()
	}
	return out
}

// deltaStream returns connection conn's session: its opening delta and
// the n deltas after it.
func (p *replay) deltaStream(conn, n int) (open padr.Delta, rest []padr.Delta) {
	gen := newDeltaGen(streamRand(p.seed, conn), p.w.pes, deltaActive, deltaOverlap)
	_, add := gen.next()
	open = padr.Delta{Add: add}
	rest = make([]padr.Delta, n)
	for i := range rest {
		rest[i].Remove, rest[i].Add = gen.next()
	}
	return open, rest
}

// wireLayer times the codec on the workload's frames: the client's request
// encode plus the server's response encode, and both decodes.
func (p *replay) wireLayer() error {
	if p.w.http {
		return nil
	}
	const items, batch = 2048, 128
	// encodeAll appends request and response frames for items [lo, hi).
	var encodeAll func(buf []byte, lo, hi int) ([]byte, error)
	var decodeOne func(typ byte, body []byte) error
	switch p.w.kind {
	case kindPair:
		pairs := p.interleavedPairs(items)
		encodeAll = func(buf []byte, lo, hi int) ([]byte, error) {
			for i := lo; i < hi; i++ {
				buf = wire.AppendRequestV(buf, &wire.Request{ID: uint64(i), Src: pairs[i].Src, Dst: pairs[i].Dst}, wire.Version)
				// Answer fields of a warm shard: rounds in the thousands.
				buf = wire.AppendResponseV(buf, &wire.Response{ID: uint64(i), Status: 200, Shard: i & 1,
					Arrival: 4000 + i, Dispatched: 4000 + i, Finished: 4001 + i, LatencyRounds: 1}, wire.Version)
			}
			return buf, nil
		}
		var req wire.Request
		var resp wire.Response
		decodeOne = func(typ byte, body []byte) error {
			if typ == wire.TypeRequest {
				return wire.ParseRequestV(body, &req, wire.Version)
			}
			return wire.ParseResponseV(body, &resp, wire.Version)
		}
	case kindSet:
		sets := append(p.setStream(0, items/2), p.setStream(1, items/2)...)
		var pairs [][2]int
		encodeAll = func(buf []byte, lo, hi int) ([]byte, error) {
			var err error
			for i := lo; i < hi; i++ {
				pairs = toPairs(pairs[:0], sets[i].Comms)
				if buf, err = wire.AppendSetRequestV(buf, &wire.SetRequest{ID: uint64(i), N: sets[i].N, Pairs: pairs}, wire.Version); err != nil {
					return buf, err
				}
				buf = wire.AppendSetResponseV(buf, &wire.SetResponse{ID: uint64(i), Status: 200, Rounds: 5, Bound: 6,
					Width: 4, Batches: 2, Residual: 3, Units: 60, Strategy: wire.StrategyPeel}, wire.Version)
			}
			return buf, nil
		}
		var req wire.SetRequest
		var resp wire.SetResponse
		decodeOne = func(typ byte, body []byte) error {
			if typ == wire.TypeSetRequest {
				return wire.ParseSetRequestV(body, &req, wire.Version)
			}
			return wire.ParseSetResponseV(body, &resp, wire.Version)
		}
	case kindDelta:
		_, d0 := p.deltaStream(0, items/2)
		_, d1 := p.deltaStream(1, items/2)
		deltas := append(d0, d1...)
		var rm, add [][2]int
		encodeAll = func(buf []byte, lo, hi int) ([]byte, error) {
			var err error
			for i := lo; i < hi; i++ {
				rm, add = toPairs(rm[:0], deltas[i].Remove), toPairs(add[:0], deltas[i].Add)
				if buf, err = wire.AppendDeltaRequest(buf, &wire.DeltaRequest{ID: uint64(i), Session: sessionID(p.seed, i&1),
					Remove: rm, Add: add}); err != nil {
					return buf, err
				}
				buf = wire.AppendDeltaResponse(buf, &wire.DeltaResponse{ID: uint64(i), Session: sessionID(p.seed, i&1),
					Status: 200, Rounds: 2, Width: 2, Size: deltaActive})
			}
			return buf, nil
		}
		var req wire.DeltaRequest
		var resp wire.DeltaResponse
		decodeOne = func(typ byte, body []byte) error {
			if typ == wire.TypeDeltaRequest {
				return wire.ParseDeltaRequest(body, &req)
			}
			return wire.ParseDeltaResponse(body, &resp)
		}
	}

	root := p.rec.open("replay.wire")
	defer p.rec.end(root)
	buf := make([]byte, 0, 1<<20)
	frames, passes := 0, 0
	m0, _ := mallocs()
	deadline := time.Now().Add(wireBudget)
	for passes == 0 || time.Now().Before(deadline) {
		buf = buf[:0]
		for lo := 0; lo < items; lo += batch {
			t0 := time.Now()
			var err error
			if buf, err = encodeAll(buf, lo, lo+batch); err != nil {
				return fmt.Errorf("wire encode: %w", err)
			}
			p.rec.add("wire.encode", root, t0, time.Now(), 2*batch)
		}
		for off := 0; off < len(buf); {
			t0 := time.Now()
			for k := 0; k < 2*batch && off < len(buf); k++ {
				typ, body, n, err := wire.DecodeFrame(buf[off:])
				if err == nil {
					err = decodeOne(typ, body)
				}
				if err != nil {
					return fmt.Errorf("wire decode: %w", err)
				}
				off += n
			}
			p.rec.add("wire.decode", root, t0, time.Now(), 2*batch)
		}
		frames += 2 * items
		passes++
	}
	m1, _ := mallocs()
	p.m["wire.encode_ns"] = p.rec.medianPerItem("wire.encode")
	p.m["wire.decode_ns"] = p.rec.medianPerItem("wire.decode")
	p.m["wire.frame_bytes"] = float64(len(buf)) / float64(2*items)
	p.m["wire.allocs_per_frame"] = float64(m1-m0) / float64(frames)
	return nil
}

// callers runs fn from n goroutines until it returns false or the budget
// is spent; each goroutine gets its index.
func callers(n int, budget time.Duration, fn func(g int) bool) {
	deadline := time.Now().Add(budget)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Now().Before(deadline) && fn(g) {
			}
		}(g)
	}
	wg.Wait()
}

// serveLayer times the serve package's entry point for the workload's
// request kind at the workload's concurrency.
func (p *replay) serveLayer() error {
	root := p.rec.open("replay.serve")
	defer p.rec.end(root)
	if p.w.kind == kindSet {
		planner := serve.NewPlanner(serve.PlannerConfig{Registry: p.reg, Tracer: p.tr})
		streams := make([][]*comm.Set, p.w.conns)
		for c := range streams {
			streams[c] = p.setStream(c, 4096)
		}
		next := make([]atomic.Int64, p.w.conns)
		var bad atomic.Int64
		callers(p.w.conns, serveBudget, func(g int) bool {
			i := int(next[g].Add(1) - 1)
			if i >= len(streams[g]) {
				return false
			}
			t0 := time.Now()
			res := planner.Plan(streams[g][i], protoWire, false)
			p.rec.add("serve.plan", root, t0, time.Now(), 1)
			if res.Status != http.StatusOK {
				bad.Add(1)
			}
			return true
		})
		if bad.Load() > 0 {
			return fmt.Errorf("serve replay: %d plans failed", bad.Load())
		}
		p.m["serve.plan_ns"] = p.rec.median("serve.plan")
		return nil
	}

	pool, err := serve.New(serve.Config{PEs: p.w.pes, Shards: shards, QueueDepth: queueDepth,
		BatchMax: batchMax, BatchWait: batchWait, Registry: p.reg, Tracer: p.tr})
	if err != nil {
		return err
	}
	pool.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = pool.Drain(ctx)
	}()
	var bad atomic.Int64

	if p.w.kind == kindDelta {
		type session struct {
			id   uint64
			rest []padr.Delta
			next int
		}
		var sessions []*session
		for c := 0; c < p.w.conns; c++ {
			open, rest := p.deltaStream(c, 20000)
			s := &session{id: sessionID(p.seed, c), rest: rest}
			if res := pool.ScheduleDelta(s.id, nil, open.Add, 0); res.Status != http.StatusOK {
				return fmt.Errorf("serve replay: session open: %s", res.Err)
			}
			sessions = append(sessions, s)
		}
		callers(len(sessions), serveBudget, func(g int) bool {
			s := sessions[g]
			if s.next >= len(s.rest) {
				return false
			}
			d := s.rest[s.next]
			s.next++
			t0 := time.Now()
			res := pool.ScheduleDelta(s.id, d.Remove, d.Add, 0)
			p.rec.add("serve.schedule", root, t0, time.Now(), 1)
			if res.Status != http.StatusOK {
				bad.Add(1)
			}
			return true
		})
		if bad.Load() > 0 {
			return fmt.Errorf("serve replay: %d deltas failed", bad.Load())
		}
		p.m["serve.schedule_ns"] = p.rec.median("serve.schedule")
		return nil
	}

	// Pair workloads: each connection's stream is shared by its in-flight
	// callers, as the live client's slots share it.
	streams := make([][]comm.Comm, p.w.conns)
	for c := range streams {
		streams[c] = p.pairStream(c, 16384)
	}
	n := p.w.conns * p.w.inflight
	var next = make([]atomic.Int64, p.w.conns)
	take := func(g int) (comm.Comm, bool) {
		c := g % p.w.conns
		i := int(next[c].Add(1) - 1)
		if i >= len(streams[c]) {
			return comm.Comm{}, false
		}
		return streams[c][i], true
	}
	callers(n, serveBudget, func(g int) bool {
		cm, ok := take(g)
		if !ok {
			return false
		}
		t0 := time.Now()
		res := pool.Schedule(cm.Src, cm.Dst, 0)
		p.rec.add("serve.schedule", root, t0, time.Now(), 1)
		if res.Status != http.StatusOK {
			bad.Add(1)
		}
		return true
	})
	for c := range next {
		next[c].Store(0)
	}
	h := serve.Handler(pool, nil, p.reg, p.tr)
	callers(n, serveBudget, func(g int) bool {
		cm, ok := take(g)
		if !ok {
			return false
		}
		body := fmt.Sprintf(`{"src":%d,"dst":%d}`, cm.Src, cm.Dst)
		req := httptest.NewRequest(http.MethodPost, "/schedule", strings.NewReader(body))
		rw := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rw, req)
		p.rec.add("serve.handler", root, t0, time.Now(), 1)
		if rw.Code != http.StatusOK {
			bad.Add(1)
		}
		return true
	})
	if bad.Load() > 0 {
		return fmt.Errorf("serve replay: %d pair requests failed", bad.Load())
	}
	p.m["serve.schedule_ns"] = p.rec.median("serve.schedule")
	p.m["serve.handler_ns"] = p.rec.median("serve.handler")
	return nil
}

// chunks splits the interleaved pair stream into BatchMax batches, the
// shape a size-triggered flush hands the dispatcher.
func (p *replay) chunks(n int) [][]comm.Comm {
	pairs := p.interleavedPairs(n * batchMax)
	out := make([][]comm.Comm, n)
	for i := range out {
		out[i] = pairs[i*batchMax : (i+1)*batchMax]
	}
	return out
}

// onlineLayer times the dispatcher: a BatchMax batch submitted in waves
// and dispatched until idle, as a serve worker flushes it; or a session's
// deltas applied in order.
func (p *replay) onlineLayer() error {
	root := p.rec.open("replay.online")
	defer p.rec.end(root)
	sim, err := online.New(p.w.pes)
	if err != nil {
		return err
	}
	switch p.w.kind {
	case kindPair:
		var members, deferredMembers, dispatches, batches int
		var waveA, waveB []comm.Comm
		deadline := time.Now().Add(onlineBudget)
		for _, chunk := range p.chunks(4096) {
			if !time.Now().Before(deadline) {
				break
			}
			t0 := time.Now()
			pending := chunk
			first := true
			for len(pending) > 0 {
				deferred := waveA[:0]
				for _, c := range pending {
					if sim.Busy(c.Src, c.Dst) || sim.Submit(c) != nil {
						deferred = append(deferred, c)
					}
				}
				for sim.QueueLen() > 0 {
					if _, err := sim.Dispatch(); err != nil {
						return fmt.Errorf("online replay: %w", err)
					}
					dispatches++
				}
				sim.TakeCompleted()
				if first {
					deferredMembers += len(deferred)
					first = false
				}
				waveA, waveB = waveB, deferred
				pending = deferred
			}
			sim.Recycle()
			p.rec.add("online.batch", root, t0, time.Now(), len(chunk))
			members += len(chunk)
			batches++
		}
		p.m["online.batch_ns"] = p.rec.median("online.batch")
		p.m["online.dispatches_per_batch"] = float64(dispatches) / float64(batches)
		p.m["online.deferred_share"] = float64(deferredMembers) / float64(members)
	case kindDelta:
		type session struct {
			id   uint64
			rest []padr.Delta
		}
		var sessions []session
		for c := 0; c < p.w.conns; c++ {
			open, rest := p.deltaStream(c, 20000)
			id := sessionID(p.seed, c)
			if _, err := sim.ApplyDelta(id, nil, open.Add); err != nil {
				return fmt.Errorf("online replay: session open: %w", err)
			}
			sessions = append(sessions, session{id: id, rest: rest})
		}
		applied, fallbacks := 0, 0
		deadline := time.Now().Add(onlineBudget)
		for i := 0; i < len(sessions[0].rest) && time.Now().Before(deadline); i++ {
			for _, s := range sessions {
				d := s.rest[i]
				t0 := time.Now()
				res, err := sim.ApplyDelta(s.id, d.Remove, d.Add)
				p.rec.add("online.delta", root, t0, time.Now(), d.Size())
				if err != nil {
					return fmt.Errorf("online replay: %w", err)
				}
				applied++
				if res.Fallback {
					fallbacks++
				}
			}
		}
		p.m["online.delta_ns"] = p.rec.median("online.delta")
		p.m["online.fallback_share"] = float64(fallbacks) / float64(applied)
	}
	return nil
}

// dispatcherBatches forms the well-nested batches the online dispatcher
// runs for one chunk: the first wave's endpoint-disjoint members, split
// FIFO into non-crossing batches of the dominant orientation, left batches
// mirrored onto the right-oriented line.
func dispatcherBatches(chunk []comm.Comm, n int) []*comm.Set {
	busy := make([]bool, n)
	var queue []comm.Comm
	for _, c := range chunk {
		if busy[c.Src] || busy[c.Dst] {
			continue
		}
		busy[c.Src], busy[c.Dst] = true, true
		queue = append(queue, c)
	}
	var out []*comm.Set
	for len(queue) > 0 {
		right := 0
		for _, c := range queue {
			if c.RightOriented() {
				right++
			}
		}
		wantRight := right*2 >= len(queue)
		var batch, rest []comm.Comm
		for _, c := range queue {
			if c.RightOriented() != wantRight || crossesAny(c, batch) {
				rest = append(rest, c)
				continue
			}
			batch = append(batch, c)
		}
		set := &comm.Set{N: n}
		for _, c := range batch {
			if !wantRight {
				c = comm.Comm{Src: n - 1 - c.Src, Dst: n - 1 - c.Dst}
			}
			set.Comms = append(set.Comms, c)
		}
		out = append(out, set)
		queue = rest
	}
	return out
}

func crossesAny(c comm.Comm, batch []comm.Comm) bool {
	for _, b := range batch {
		if c.Crosses(b) {
			return true
		}
	}
	return false
}

// padrLayer times the engine: Reset+Run over the dispatcher's batches for
// pair workloads, incremental Apply over each session's deltas for delta
// workloads.
func (p *replay) padrLayer() error {
	root := p.rec.open("replay.padr")
	defer p.rec.end(root)
	tree, err := topology.New(p.w.pes)
	if err != nil {
		return err
	}
	switch p.w.kind {
	case kindPair:
		var sets []*comm.Set
		for _, chunk := range p.chunks(1024) {
			sets = append(sets, dispatcherBatches(chunk, p.w.pes)...)
		}
		eng, err := padr.New(tree, sets[0])
		if err != nil {
			return err
		}
		runs, units := 0, 0
		m0, b0 := mallocs()
		deadline := time.Now().Add(padrBudget)
		for i := 0; time.Now().Before(deadline); i = (i + 1) % len(sets) {
			t0 := time.Now()
			err := eng.Reset(sets[i])
			var res *padr.Result
			if err == nil {
				res, err = eng.Run()
			}
			p.rec.add("padr.run", root, t0, time.Now(), sets[i].Len())
			if err != nil {
				return fmt.Errorf("padr replay: %w", err)
			}
			runs++
			units += res.Report.TotalUnits()
		}
		m1, b1 := mallocs()
		p.m["padr.run_ns"] = p.rec.median("padr.run")
		p.m["padr.run_allocs"] = float64(m1-m0) / float64(runs)
		p.m["padr.run_bytes"] = float64(b1-b0) / float64(runs)
		p.m["padr.units_per_run"] = float64(units) / float64(runs)
	case kindDelta:
		type session struct {
			eng  *padr.Engine
			rest []padr.Delta
		}
		var sessions []session
		for c := 0; c < p.w.conns; c++ {
			open, rest := p.deltaStream(c, 20000)
			eng, err := padr.New(tree, &comm.Set{N: p.w.pes, Comms: open.Add})
			if err != nil {
				return err
			}
			if _, err := eng.Run(); err != nil {
				return err
			}
			sessions = append(sessions, session{eng: eng, rest: rest})
		}
		applies := 0
		m0, _ := mallocs()
		deadline := time.Now().Add(padrBudget)
		for i := 0; i < len(sessions[0].rest) && time.Now().Before(deadline); i++ {
			for _, s := range sessions {
				t0 := time.Now()
				_, err := s.eng.Apply(s.rest[i])
				p.rec.add("padr.apply", root, t0, time.Now(), s.rest[i].Size())
				if err != nil {
					return fmt.Errorf("padr replay: apply: %w", err)
				}
				applies++
			}
		}
		m1, _ := mallocs()
		p.m["padr.apply_ns"] = p.rec.median("padr.apply")
		p.m["padr.apply_allocs"] = float64(m1-m0) / float64(applies)
	}
	return nil
}

// setLayers times the set-planning pipeline's stages on the workload's
// sets: comm.Decompose, hybrid.Schedule and general.Exact on each
// orientation half, the whole-half coloring the hybrid planner runs.
func (p *replay) setLayers() error {
	if p.w.kind != kindSet {
		return nil
	}
	root := p.rec.open("replay.plan")
	defer p.rec.end(root)
	tree, err := topology.New(p.w.pes)
	if err != nil {
		return err
	}
	sets := append(p.setStream(0, 2048), p.setStream(1, 2048)...)
	// Interleave the two connections' streams.
	order := make([]*comm.Set, 0, len(sets))
	for i := 0; i < len(sets)/2; i++ {
		order = append(order, sets[i], sets[len(sets)/2+i])
	}
	var planned, residual, coloring, batches, colorings, exhausted int
	deadline := time.Now().Add(setBudget)
	for _, s := range order {
		if !time.Now().Before(deadline) {
			break
		}
		t0 := time.Now()
		right, left := comm.Decompose(s)
		p.rec.add("comm.decompose", root, t0, time.Now(), s.Len())

		t0 = time.Now()
		plan, err := hybrid.Schedule(tree, s, hybrid.WithTracer(p.tr))
		p.rec.add("hybrid.schedule", root, t0, time.Now(), s.Len())
		if err != nil {
			return fmt.Errorf("hybrid replay: %w", err)
		}
		planned++
		batches += plan.Batches
		if plan.ResidualComms > 0 {
			residual++
		}
		if plan.Strategy == hybrid.StrategyColoring {
			coloring++
		}

		for _, half := range []*comm.Set{right, left} {
			if half.Len() == 0 {
				continue
			}
			t0 = time.Now()
			_, err := general.Exact(tree, half, hybrid.DefaultExactBudget)
			p.rec.add("general.color", root, t0, time.Now(), half.Len())
			colorings++
			switch {
			case errors.Is(err, general.ErrBudget):
				exhausted++
			case err != nil:
				return fmt.Errorf("general replay: %w", err)
			}
		}
	}
	p.m["comm.decompose_ns"] = p.rec.median("comm.decompose")
	p.m["hybrid.schedule_ns"] = p.rec.median("hybrid.schedule")
	p.m["hybrid.residual_share"] = float64(residual) / float64(planned)
	p.m["hybrid.coloring_win_share"] = float64(coloring) / float64(planned)
	p.m["hybrid.batches_per_set"] = float64(batches) / float64(planned)
	p.m["general.color_ns"] = p.rec.median("general.color")
	p.m["general.exhausted_share"] = float64(exhausted) / float64(colorings)
	return nil
}
