package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"cst/internal/comm"
	"cst/internal/wire"
)

// window is the timed part of a run: clients start sending at once, but
// only requests sent in [start, end) are recorded; warm-up precedes start.
// The window is cut into equal slices and each metric is taken per slice.
type window struct {
	start, end time.Time
	slices     int
}

// newWindow cuts seconds into slices of about sliceLen each.
func newWindow(start time.Time, seconds int, sliceLen time.Duration) window {
	d := time.Duration(seconds) * time.Second
	return window{start: start, end: start.Add(d), slices: max(1, int(d/sliceLen))}
}

// slice returns the index of the slice holding t, or -1 outside the window.
func (w window) slice(t time.Time) int {
	if t.Before(w.start) || !t.Before(w.end) {
		return -1
	}
	return int(int64(t.Sub(w.start)) * int64(w.slices) / int64(w.end.Sub(w.start)))
}

// sliceStart returns the start of slice k (k == slices is the window end).
func (w window) sliceStart(k int) time.Time {
	return w.start.Add(time.Duration(int64(w.end.Sub(w.start)) * int64(k) / int64(w.slices)))
}

// answerGrace bounds how long after the window an answer may still arrive.
const answerGrace = 10 * time.Second

// phase classifies a send time: recording inside the window, stop at or
// after its end.
func (w window) phase(t time.Time) (record, stop bool) {
	return !t.Before(w.start), !t.Before(w.end)
}

// connResult is one connection's outcome over the timed window.
type connResult struct {
	attempted int // requests sent inside the window
	failed    int // non-2xx, transport errors, unanswered and wrong answers
	wrong     int // answers that broke an invariant (also counted in failed)
	statuses  map[int]int
	errs      []string
	answered  []int     // per slice: correct answers received in it
	lat       [][]int64 // per slice: send-to-answer ns of correct answers sent in it

	// set workloads
	sample       []plannedSet // seeded sample for the in-process re-plan
	setHashes    map[uint64]struct{}
	repeated     int
	residualSets int // answers whose plan colored a residual
	coloringWins int // answers whose plan is pure coloring

	// delta workloads
	session    uint64
	gen        *deltaGen
	lastRounds int
	fallbacks  int
	deltas     int
}

// plannedSet is one set answer kept for the in-process re-plan check.
type plannedSet struct {
	set                  *comm.Set
	rounds, bound, width int
	units                int64
}

func newConnResult(win window) *connResult {
	return &connResult{statuses: make(map[int]int), setHashes: make(map[uint64]struct{}),
		answered: make([]int, win.slices), lat: make([][]int64, win.slices)}
}

// answer records one answer to a request sent at t0. ok reports a 2xx
// whose content passed the inline checks.
func (r *connResult) answer(win window, t0, t1 time.Time, status int, ok bool) {
	if k := win.slice(t0); k >= 0 {
		switch {
		case status < 200 || status >= 300:
			r.failed++
			r.statuses[status]++
		case !ok:
			r.failed++
			r.wrong++
		default:
			r.lat[k] = append(r.lat[k], t1.Sub(t0).Nanoseconds())
		}
	}
	if k := win.slice(t1); ok && k >= 0 {
		r.answered[k]++
	}
}

// lost records n window requests that never got an answer.
func (r *connResult) lost(n int, err error) {
	r.failed += n
	if err != nil && len(r.errs) < 4 {
		r.errs = append(r.errs, err.Error())
	}
}

// wireConn is one client connection speaking the binary wire protocol. It
// reads through its own bufio.Reader so the pipelined client can tell when
// answers are already buffered.
type wireConn struct {
	conn    net.Conn
	br      *bufio.Reader
	rd      *wire.Reader
	bw      *bufio.Writer
	version uint8
	scratch []byte
	req     wire.Request // reused so a pair send does not allocate
}

// dialWire connects and shakes hands. Every later read and write must
// finish by deadline, so a server that stops answering fails the run
// instead of hanging it.
func dialWire(addr string, deadline time.Time) (*wireConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &wireConn{conn: conn, br: bufio.NewReaderSize(conn, 4096), bw: bufio.NewWriterSize(conn, 4096)}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(wire.AppendHello(nil, wire.Version)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire handshake: %w", err)
	}
	var accept [wire.HandshakeBytes]byte
	if _, err := io.ReadFull(c.br, accept[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire handshake: %w", err)
	}
	if c.version, err = wire.ParseHello(accept[:]); err != nil {
		conn.Close()
		return nil, err
	}
	if c.version < wire.VersionDelta {
		conn.Close()
		return nil, fmt.Errorf("server speaks wire v%d, need v%d", c.version, wire.VersionDelta)
	}
	_ = conn.SetDeadline(deadline)
	// The reader shares c.br: bufio hands back a reader that is already
	// large enough instead of wrapping it again.
	c.rd = wire.NewReader(c.br)
	return c, nil
}

func (c *wireConn) close() { c.conn.Close() }

// next reads one frame of the expected type.
func (c *wireConn) next(want byte) ([]byte, error) {
	typ, body, err := c.rd.Next()
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("frame type 0x%02x, want 0x%02x", typ, want)
	}
	return body, nil
}

func (c *wireConn) sendPair(id uint64, src, dst int) error {
	c.req = wire.Request{ID: id, Src: src, Dst: dst}
	c.scratch = wire.AppendRequestV(c.scratch[:0], &c.req, c.version)
	_, err := c.bw.Write(c.scratch)
	return err
}

func (c *wireConn) roundTripSet(req *wire.SetRequest, resp *wire.SetResponse) error {
	var err error
	if c.scratch, err = wire.AppendSetRequestV(c.scratch[:0], req, c.version); err != nil {
		return err
	}
	if _, err := c.bw.Write(c.scratch); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	body, err := c.next(wire.TypeSetResponse)
	if err != nil {
		return err
	}
	if err := wire.ParseSetResponseV(body, resp, c.version); err != nil {
		return err
	}
	if resp.ID != req.ID {
		return fmt.Errorf("set answer id %d for request %d", resp.ID, req.ID)
	}
	return nil
}

func (c *wireConn) roundTripDelta(req *wire.DeltaRequest, resp *wire.DeltaResponse) error {
	var err error
	if c.scratch, err = wire.AppendDeltaRequest(c.scratch[:0], req); err != nil {
		return err
	}
	if _, err := c.bw.Write(c.scratch); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	body, err := c.next(wire.TypeDeltaResponse)
	if err != nil {
		return err
	}
	if err := wire.ParseDeltaResponse(body, resp); err != nil {
		return err
	}
	if resp.ID != req.ID {
		return fmt.Errorf("delta answer id %d for request %d", resp.ID, req.ID)
	}
	return nil
}

// pairOK is the inline pair-answer check.
func pairOK(status, arrival, dispatched, finished int) bool {
	return status == http.StatusOK && arrival <= dispatched && dispatched <= finished
}

// runHTTPPairs is a closed-loop HTTP client: one POST /schedule in flight.
func runHTTPPairs(addr string, gen *pairGen, win window, r *connResult) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	url := "http://" + addr + "/schedule"
	var body []byte
	var res struct {
		Src, Dst, Arrival, Dispatched, Finished, Status int
	}
	for {
		t0 := time.Now()
		record, stop := win.phase(t0)
		if stop {
			return
		}
		if record {
			r.attempted++
		}
		src, dst := gen.next()
		body = fmt.Appendf(body[:0], `{"src":%d,"dst":%d}`, src, dst)
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			if record {
				r.lost(1, err)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		res.Src, res.Dst = -1, -1
		err = json.NewDecoder(resp.Body).Decode(&res)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ok := err == nil && res.Src == src && res.Dst == dst &&
			pairOK(res.Status, res.Arrival, res.Dispatched, res.Finished)
		r.answer(win, t0, time.Now(), resp.StatusCode, ok)
	}
}

// runWirePairs keeps w.inflight pair requests in flight on one wire
// connection. Request ids encode their slot (id % inflight), so matching an
// answer to its send time needs no map.
func runWirePairs(addr string, gen *pairGen, inflight int, win window, r *connResult) {
	c, err := dialWire(addr, win.end.Add(answerGrace))
	if err != nil {
		r.lost(1, err)
		return
	}
	defer c.close()
	type slot struct {
		id   uint64
		t0   time.Time
		busy bool
	}
	slots := make([]slot, inflight)
	free := make([]int, 0, inflight)
	for i := inflight - 1; i >= 0; i-- {
		free = append(free, i)
	}
	// unanswered counts the in-flight requests sent inside the window.
	unanswered := func() int {
		n := 0
		for _, s := range slots {
			if s.busy && win.slice(s.t0) >= 0 {
				n++
			}
		}
		return n
	}
	gens := uint64(0)
	busy := 0
	var resp wire.Response
	stopped := false
	for {
		for !stopped && len(free) > 0 {
			t0 := time.Now()
			record, stop := win.phase(t0)
			if stop {
				stopped = true
				break
			}
			i := free[len(free)-1]
			free = free[:len(free)-1]
			gens++
			id := gens*uint64(inflight) + uint64(i)
			src, dst := gen.next()
			if err := c.sendPair(id, src, dst); err != nil {
				r.lost(busy+1, err)
				return
			}
			slots[i] = slot{id: id, t0: t0, busy: true}
			busy++
			if record {
				r.attempted++
			}
		}
		if busy == 0 {
			return
		}
		if err := c.bw.Flush(); err != nil {
			r.lost(unanswered(), err)
			return
		}
		// Block for one answer, then take every answer already buffered
		// before refilling the window.
		for first := true; first || c.br.Buffered() > 0; first = false {
			body, err := c.next(wire.TypeResponse)
			if err == nil {
				err = wire.ParseResponseV(body, &resp, c.version)
			}
			if err != nil {
				r.lost(unanswered(), err)
				return
			}
			i := int(resp.ID % uint64(inflight))
			if !slots[i].busy || slots[i].id != resp.ID {
				r.lost(unanswered(), fmt.Errorf("answer for unknown id %d", resp.ID))
				return
			}
			ok := pairOK(resp.Status, resp.Arrival, resp.Dispatched, resp.Finished)
			r.answer(win, slots[i].t0, time.Now(), resp.Status, ok)
			slots[i].busy = false
			busy--
			free = append(free, i)
		}
	}
}

// runWireSets is a closed-loop set client: one plan in flight. A seeded
// sample of the window's answers is kept for the in-process re-plan.
func runWireSets(addr string, gen *setGen, sampleRng *rand.Rand, win window, r *connResult) {
	c, err := dialWire(addr, win.end.Add(answerGrace))
	if err != nil {
		r.lost(1, err)
		return
	}
	defer c.close()
	var req wire.SetRequest
	var resp wire.SetResponse
	for id := uint64(1); ; id++ {
		t0 := time.Now()
		record, stop := win.phase(t0)
		if stop {
			return
		}
		s := gen.next()
		req.ID, req.N = id, s.N
		req.Pairs = req.Pairs[:0]
		for _, cm := range s.Comms {
			req.Pairs = append(req.Pairs, [2]int{cm.Src, cm.Dst})
		}
		if record {
			r.attempted++
		}
		if err := c.roundTripSet(&req, &resp); err != nil {
			if record {
				r.lost(1, err)
			}
			return
		}
		ok := resp.Status == http.StatusOK && resp.Width <= resp.Rounds && resp.Rounds <= resp.Bound &&
			resp.Residual <= s.Len() && resp.Units > 0
		r.answer(win, t0, time.Now(), resp.Status, ok)
		if !record {
			continue
		}
		if resp.Residual > 0 {
			r.residualSets++
		}
		if resp.Strategy == wire.StrategyColoring {
			r.coloringWins++
		}
		h := setHash(s)
		if _, dup := r.setHashes[h]; dup {
			r.repeated++
		}
		r.setHashes[h] = struct{}{}
		if ok && len(r.sample) < 64 && sampleRng.Intn(16) == 0 {
			r.sample = append(r.sample, plannedSet{set: s, rounds: resp.Rounds, bound: resp.Bound,
				width: resp.Width, units: resp.Units})
		}
	}
}

// setHash is an order-independent hash of a set: the sum of a
// splitmix64-mixed word per communication.
func setHash(s *comm.Set) uint64 {
	sum := uint64(s.N)
	for _, c := range s.Comms {
		z := uint64(c.Src)<<32 | uint64(uint32(c.Dst))
		z += 0x9E3779B97F4A7C15
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		sum += z ^ z>>31
	}
	return sum
}

// runWireDeltas drives one delta session, one delta in flight. The
// session's opening delta goes out first, inside the warm-up.
func runWireDeltas(addr string, gen *deltaGen, win window, r *connResult) {
	c, err := dialWire(addr, win.end.Add(answerGrace))
	if err != nil {
		r.lost(1, err)
		return
	}
	defer c.close()
	var req wire.DeltaRequest
	var resp wire.DeltaResponse
	for id := uint64(1); ; id++ {
		t0 := time.Now()
		record, stop := win.phase(t0)
		if stop {
			return
		}
		remove, add := gen.next()
		req.ID, req.Session = id, r.session
		req.Remove, req.Add = toPairs(req.Remove[:0], remove), toPairs(req.Add[:0], add)
		if record {
			r.attempted++
		}
		if err := c.roundTripDelta(&req, &resp); err != nil {
			if record {
				r.lost(1, err)
			}
			return
		}
		ok := resp.Status == http.StatusOK && resp.Rounds == resp.Width &&
			resp.Size == gen.active && resp.Session == r.session
		r.answer(win, t0, time.Now(), resp.Status, ok)
		r.lastRounds = resp.Rounds
		if record {
			r.deltas++
			if resp.Fallback {
				r.fallbacks++
			}
		}
	}
}

func toPairs(dst [][2]int, cs []comm.Comm) [][2]int {
	for _, c := range cs {
		dst = append(dst, [2]int{c.Src, c.Dst})
	}
	return dst
}

// runLoad drives every connection of w against srv over win and returns
// the per-connection results.
func runLoad(w workload, srv *server, seed int64, win window) []*connResult {
	results := make([]*connResult, w.conns)
	var wg sync.WaitGroup
	for i := 0; i < w.conns; i++ {
		r := newConnResult(win)
		results[i] = r
		rng := streamRand(seed, i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch w.kind {
			case kindPair:
				gen := &pairGen{rng: rng, pes: w.pes}
				if w.http {
					runHTTPPairs(srv.httpAddr, gen, win, r)
				} else {
					runWirePairs(srv.wireAddr, gen, w.inflight, win, r)
				}
			case kindSet:
				gen := &setGen{rng: rng, pes: w.pes, size: setSize}
				runWireSets(srv.wireAddr, gen, rand.New(rand.NewSource(seed+int64(i)*31)), win, r)
			case kindDelta:
				r.session = sessionID(seed, i)
				r.gen = newDeltaGen(rng, w.pes, deltaActive, deltaOverlap)
				runWireDeltas(srv.wireAddr, r.gen, win, r)
			}
		}(i)
	}
	wg.Wait()
	return results
}
