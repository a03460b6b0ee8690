package main

import (
	"fmt"
	"net/http"
	"time"

	"cst/internal/comm"
	"cst/internal/hybrid"
	"cst/internal/padr"
	"cst/internal/topology"
	"cst/internal/wire"
)

// checkReport collects the post-window answer checks. Each failed check
// counts as one failed request.
type checkReport struct {
	checks, failed int
	failures       []string // the first few failures, for the report
}

func (c *checkReport) expect(ok bool, format string, args ...any) {
	c.checks++
	if ok {
		return
	}
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// checkSetSample re-plans each sampled set in-process with hybrid.Schedule
// and requires the server's rounds, bound, width and units.
func checkSetSample(results []*connResult, c *checkReport) error {
	tree, err := topology.New(defaultPEs)
	if err != nil {
		return err
	}
	for _, r := range results {
		for _, ps := range r.sample {
			plan, err := hybrid.Schedule(tree, ps.set)
			if err != nil {
				c.expect(false, "re-plan %v: %v", ps.set.Comms, err)
				continue
			}
			units := int64(plan.Report.TotalUnits())
			c.expect(plan.Rounds == ps.rounds && plan.Bound == ps.bound && plan.Width == ps.width && units == ps.units,
				"set re-plan: server rounds/bound/width/units %d/%d/%d/%d, in-process %d/%d/%d/%d",
				ps.rounds, ps.bound, ps.width, ps.units, plan.Rounds, plan.Bound, plan.Width, units)
		}
	}
	return nil
}

// checkDeltaFinal reschedules each session's final set from scratch with
// padr and requires the rounds of the session's last answer.
func checkDeltaFinal(results []*connResult, pes int, c *checkReport) error {
	tree, err := topology.New(pes)
	if err != nil {
		return err
	}
	for _, r := range results {
		set := r.gen.set(pes)
		eng, err := padr.New(tree, set)
		if err != nil {
			c.expect(false, "session %d final set: %v", r.session, err)
			continue
		}
		res, err := eng.Run()
		if err != nil {
			c.expect(false, "session %d final run: %v", r.session, err)
			continue
		}
		c.expect(res.Rounds == r.lastRounds, "session %d: final set takes %d rounds from scratch, server said %d",
			r.session, res.Rounds, r.lastRounds)
	}
	return nil
}

// quality is the plan-quality probe's outcome: the paper's outputs.
type quality struct {
	sets         int
	roundsRatio  float64 // mean Rounds/Width
	unitsPerComm float64 // total power units / total communications
}

// probeQuality plans probeSets seeded sets on the server over one wire
// connection, checks every answer and returns the mean plan quality.
func probeQuality(addr string, seed int64, c *checkReport) (quality, error) {
	conn, err := dialWire(addr, time.Now().Add(time.Minute))
	if err != nil {
		return quality{}, err
	}
	defer conn.close()
	gen := probeGen(seed)
	var req wire.SetRequest
	var resp wire.SetResponse
	var q quality
	var units, comms int64
	for i := 0; i < probeSets; i++ {
		s := gen.next()
		req.ID, req.N = uint64(i+1), s.N
		req.Pairs = toPairs(req.Pairs[:0], s.Comms)
		if err := conn.roundTripSet(&req, &resp); err != nil {
			return quality{}, err
		}
		ok := resp.Status == http.StatusOK && resp.Width >= 1 && resp.Width <= resp.Rounds && resp.Rounds <= resp.Bound
		c.expect(ok, "probe set %d: status %d rounds %d width %d bound %d", i, resp.Status, resp.Rounds, resp.Width, resp.Bound)
		if !ok {
			continue
		}
		q.sets++
		q.roundsRatio += float64(resp.Rounds) / float64(resp.Width)
		units += resp.Units
		comms += int64(s.Len())
	}
	if q.sets == 0 || comms == 0 {
		return q, fmt.Errorf("plan-quality probe: no set planned")
	}
	q.roundsRatio /= float64(q.sets)
	q.unitsPerComm = float64(units) / float64(comms)
	return q, nil
}

// setupSet is the small mixed set a set-workload setup probe plans.
func setupSet(pes int) *comm.Set {
	return comm.NewSet(pes, comm.Comm{Src: 0, Dst: 8}, comm.Comm{Src: 12, Dst: 4}, comm.Comm{Src: 2, Dst: 9})
}
