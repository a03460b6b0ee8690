// Repository-level benchmarks: one per reproduction experiment (E1–E9, see
// DESIGN.md §3 and EXPERIMENTS.md) plus micro-benchmarks of the engines.
// Experiment benches run the harness in quick mode with a fixed seed so
// `go test -bench=.` regenerates every table's shape deterministically.
package cst_test

import (
	"context"
	"io"
	"net"
	"strconv"
	"testing"
	"time"

	"cst"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := cst.ExperimentByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := cst.ExperimentConfig{Seed: 42, Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := cst.RunExperiment(io.Discard, e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1Rounds regenerates E1 (Theorem 5): rounds == width.
func BenchmarkE1Rounds(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2ConfigChanges regenerates E2 (Theorem 8): O(1) vs Θ(w) changes.
func BenchmarkE2ConfigChanges(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3PowerUnits regenerates E3 (§2.3/§5): power units by mode.
func BenchmarkE3PowerUnits(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4Words regenerates E4 (Theorem 5): constant words/storage.
func BenchmarkE4Words(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5Verify regenerates E5 (Theorem 4): correctness mass trial.
func BenchmarkE5Verify(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6Segbus regenerates E6: segmentable-bus programs.
func BenchmarkE6Segbus(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7SRGA regenerates E7: SRGA grid routing.
func BenchmarkE7SRGA(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8Concurrent regenerates E8: goroutine-per-node execution.
func BenchmarkE8Concurrent(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9Ablation regenerates E9: baseline round-order ablation.
func BenchmarkE9Ablation(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10Energy regenerates E10: energy-model sensitivity/crossover.
func BenchmarkE10Energy(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11General regenerates E11: general (crossing) oriented sets.
func BenchmarkE11General(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12Selection regenerates E12: greedy vs conservative selection.
func BenchmarkE12Selection(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13Timing regenerates E13: reconfiguration latency.
func BenchmarkE13Timing(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14Adversary regenerates E14: adversarial worst-case search.
func BenchmarkE14Adversary(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15JointOptimum regenerates E15: exact min-change @ width rounds.
func BenchmarkE15JointOptimum(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16Online regenerates E16: online traffic sweep.
func BenchmarkE16Online(b *testing.B) { benchExperiment(b, "E16") }

// --- engine micro-benchmarks -----------------------------------------------

func benchWorkload(b *testing.B, n, w int) *cst.Set {
	b.Helper()
	s, err := cst.NestedChain(n, w)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkPADRSequential measures the sequential engine end to end
// (Phase 1 + w rounds) on a width-16 chain over 1024 PEs.
func BenchmarkPADRSequential(b *testing.B) {
	tree := cst.MustNewTree(1024)
	s := benchWorkload(b, 1024, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cst.Run(tree, s)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rounds != 16 {
			b.Fatal("wrong rounds")
		}
	}
}

// BenchmarkPADREngineReused measures the steady-state cost of the reusable
// engine: one Engine built outside the loop, Reset+Run per iteration. The
// gap to BenchmarkPADREngineFresh is the price of engine construction.
func BenchmarkPADREngineReused(b *testing.B) {
	tree := cst.MustNewTree(1024)
	s := benchWorkload(b, 1024, 16)
	e, err := cst.NewEngine(tree, s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Reset(s); err != nil {
			b.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Rounds != 16 {
			b.Fatal("wrong rounds")
		}
	}
}

// BenchmarkEngineConstructFresh measures bare engine construction: the
// arena, crossbar, and scratch allocations a fresh New pays per set.
func BenchmarkEngineConstructFresh(b *testing.B) {
	tree := cst.MustNewTree(1024)
	s := benchWorkload(b, 1024, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cst.NewEngine(tree, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineConstructReset measures re-arming a pooled engine onto a
// set — the allocation-free path that replaces construction under reuse.
func BenchmarkEngineConstructReset(b *testing.B) {
	tree := cst.MustNewTree(1024)
	s := benchWorkload(b, 1024, 16)
	e, err := cst.NewEngine(tree, s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Reset(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPADREngineFresh builds a new engine every iteration — the
// construction-heavy pattern BenchmarkPADREngineReused avoids.
func BenchmarkPADREngineFresh(b *testing.B) {
	tree := cst.MustNewTree(1024)
	s := benchWorkload(b, 1024, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := cst.NewEngine(tree, s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchConcurrentRun is the shared goroutine-per-node loop behind the three
// concurrent-engine benchmarks; opts selects the instrumentation.
func benchConcurrentRun(b *testing.B, opts ...cst.ConcurrentOption) {
	b.Helper()
	tree := cst.MustNewTree(1024)
	s := benchWorkload(b, 1024, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cst.RunConcurrent(tree, s, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rounds != 16 {
			b.Fatal("wrong rounds")
		}
	}
}

// BenchmarkPADRConcurrent measures the goroutine-per-node engine on the
// same workload (2047 goroutines, channel waves), spawning a fresh fabric
// per run and with observability fully disabled — the baseline for
// BenchmarkSimRunInstrumented and BenchmarkFabricReused.
func BenchmarkPADRConcurrent(b *testing.B) { benchConcurrentRun(b) }

// BenchmarkSimRunInstrumented is the same run publishing every metric
// series to a live registry; compare against BenchmarkPADRConcurrent to
// price the instrumentation.
func BenchmarkSimRunInstrumented(b *testing.B) {
	reg := cst.NewMetrics()
	benchConcurrentRun(b, cst.WithConcurrentMetrics(reg))
}

// BenchmarkFabricReused runs the same concurrent workload over a persistent
// fabric whose 2047 goroutines survive across runs; the gap to
// BenchmarkPADRConcurrent is the per-run spawn/teardown cost.
func BenchmarkFabricReused(b *testing.B) {
	tree := cst.MustNewTree(1024)
	s := benchWorkload(b, 1024, 16)
	f := cst.NewFabric(tree)
	defer f.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rounds != 16 {
			b.Fatal("wrong rounds")
		}
	}
}

// --- observability & audit overhead ----------------------------------------
//
// The series BenchmarkPADRSequential (noop) → BenchmarkPADRSequentialTraced
// (ring tracer) → BenchmarkPADRSequentialAudited (tracer + live auditor)
// prices each observability layer on the identical workload; BENCH_obs.json
// in CI is generated from exactly these names.

// BenchmarkPADRSequentialTraced is BenchmarkPADRSequential with a ring
// tracer attached (no writer, no sink): the cost of event capture alone.
func BenchmarkPADRSequentialTraced(b *testing.B) {
	tree := cst.MustNewTree(1024)
	s := benchWorkload(b, 1024, 16)
	tracer := cst.NewTracer(nil, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cst.Run(tree, s, cst.WithTrace(tracer)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPADRSequentialAudited runs with the full audit pipeline live:
// registry, tracer, and the auditor tapping every event through the sink —
// ledger replay, monitors, and critical-path tracking included. The gap to
// BenchmarkPADRSequential is the total price of an audit-enabled run.
func BenchmarkPADRSequentialAudited(b *testing.B) {
	tree := cst.MustNewTree(1024)
	s := benchWorkload(b, 1024, 16)
	reg := cst.NewMetrics()
	tracer := cst.NewTracer(nil, 0)
	aud := cst.NewAuditor(cst.AuditConfig{Registry: reg})
	tracer.SetSink(aud.Observe)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cst.Run(tree, s, cst.WithTrace(tracer), cst.WithMetrics(reg)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTraceEvents captures one sequential run's full event stream.
func benchTraceEvents(b *testing.B) []cst.TraceEvent {
	b.Helper()
	tree := cst.MustNewTree(1024)
	s := benchWorkload(b, 1024, 16)
	tracer := cst.NewTracer(nil, 0)
	var events []cst.TraceEvent
	tracer.SetSink(func(e cst.TraceEvent) { events = append(events, e) })
	if _, err := cst.Run(tree, s, cst.WithTrace(tracer)); err != nil {
		b.Fatal(err)
	}
	return events
}

// BenchmarkAuditReplay measures offline replay throughput: a captured run
// fed through a fresh auditor (ledger + monitors + report aggregation).
func BenchmarkAuditReplay(b *testing.B) {
	events := benchTraceEvents(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := cst.ReplayAudit(events, cst.AuditConfig{}).Report(); !rep.Clean() {
			b.Fatal("replay not clean")
		}
	}
}

// BenchmarkTraceExportJSONL measures trace-export throughput: streaming the
// retained ring as JSONL, the payload of one /trace?since=0 request.
func BenchmarkTraceExportJSONL(b *testing.B) {
	events := benchTraceEvents(b)
	tracer := cst.NewTracer(nil, len(events))
	for _, e := range events {
		tracer.Emit(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tracer.WriteJSONLSince(io.Discard, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfettoExport measures Chrome-trace rendering of a full run.
func BenchmarkPerfettoExport(b *testing.B) {
	events := benchTraceEvents(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cst.WritePerfetto(io.Discard, events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeWireSampled prices span tracing on the client-observed wire
// round trip. rate0 attaches a tracer with head sampling off — the
// production default, whose cost must be indistinguishable from no tracer
// (the unsampled path takes one atomic load and no allocation). rate1pct is
// the recommended operating point (target: ≤10% over rate0); rate1
// traces every request — root span, queue and dispatch spans,
// flight-recorder finalization, trace id on the response frame.
func BenchmarkServeWireSampled(b *testing.B) {
	for _, bc := range []struct {
		name string
		rate float64
	}{{"rate0", 0}, {"rate1pct", 0.01}, {"rate1", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			tr := cst.NewTracer(nil, 4096)
			tr.SetSampleRate(bc.rate)
			tr.SetFlight(cst.NewFlightRecorder(8))
			pool, err := cst.NewServePool(cst.ServeConfig{
				PEs: 64, Shards: 1, QueueDepth: 256, Tracer: tr})
			if err != nil {
				b.Fatal(err)
			}
			pool.Start()
			ws := cst.NewWireServer(pool, cst.WireConfig{MaxPipeline: 64, Tracer: tr})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go ws.Serve(ln)
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				_ = pool.Drain(ctx)
				_ = ws.Shutdown(ctx)
			}()
			c, err := cst.WireDial(ln.Addr().String(), 5*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			var resp cst.WireResponse
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(&cst.WireRequest{ID: uint64(i), Src: 4, Dst: 29}); err != nil {
					b.Fatal(err)
				}
				if err := c.Flush(); err != nil {
					b.Fatal(err)
				}
				if err := c.Recv(&resp); err != nil {
					b.Fatal(err)
				}
				if resp.Status != 200 {
					b.Fatalf("status %d (%s)", resp.Status, resp.Err)
				}
			}
		})
	}
}

// BenchmarkServePlan prices one served set plan in process, on
// servebench's set-random shape: seeded 16-comm two-sided sets on N=64,
// cycled so no two consecutive plans repeat. untraced runs with no tracer,
// rate0 with cstserved's default tracer (sampling 0, ring only), and
// audited with a live auditor on the tracer, which bills every plan.
func BenchmarkServePlan(b *testing.B) {
	rng := cst.NewRand(42)
	sets := make([]*cst.Set, 256)
	for i := range sets {
		s, err := cst.RandomTwoSided(rng, 64, 16)
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = s
	}
	for _, bc := range []struct {
		name   string
		tracer func() *cst.Tracer
	}{
		{"untraced", func() *cst.Tracer { return nil }},
		{"rate0", func() *cst.Tracer { return cst.NewTracer(nil, 4096) }},
		{"audited", func() *cst.Tracer {
			tr := cst.NewTracer(nil, 4096)
			tr.SetSink(cst.NewAuditor(cst.AuditConfig{}).Observe)
			return tr
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pl := cst.NewServePlanner(cst.ServePlannerConfig{Tracer: bc.tracer()})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := pl.Plan(sets[i%len(sets)], 0, false); res.Status != 200 {
					b.Fatalf("status %d (%s)", res.Status, res.Err)
				}
			}
		})
	}
}

// BenchmarkBaselineDepthID measures the prior-work reconstruction on the
// same workload.
func BenchmarkBaselineDepthID(b *testing.B) {
	tree := cst.MustNewTree(1024)
	s := benchWorkload(b, 1024, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cst.RunDepthID(tree, s, cst.OutermostFirst, cst.Stateful); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineGreedy measures the greedy scheduler.
func BenchmarkBaselineGreedy(b *testing.B) {
	tree := cst.MustNewTree(1024)
	s := benchWorkload(b, 1024, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cst.RunGreedy(tree, s, cst.Stateful); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelfRoute measures the historical self-routing baseline on a
// disjoint set (one circuit per 8-PE block over 1024 PEs).
func BenchmarkSelfRoute(b *testing.B) {
	tree := cst.MustNewTree(1024)
	set := cst.NewSet(1024)
	for block := 0; block < 128; block++ {
		set.Comms = append(set.Comms, cst.Comm{Src: block * 8, Dst: block*8 + 5})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cst.SelfRouteAll(tree, set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineThroughput measures the online dispatcher under steady
// random load on a 256-PE fabric.
func BenchmarkOnlineThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := cst.NewOnline(256)
		if err != nil {
			b.Fatal(err)
		}
		rng := cst.NewRand(int64(i))
		for step := 0; step < 50; step++ {
			sim.SubmitRandom(rng, 4)
			if sim.QueueLen() >= 8 {
				if _, err := sim.Dispatch(); err != nil {
					b.Fatal(err)
				}
			} else {
				sim.Tick()
			}
		}
		if err := sim.Drain(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactColoring measures the branch-and-bound scheduler on random
// crossing sets.
func BenchmarkExactColoring(b *testing.B) {
	tree := cst.MustNewTree(64)
	set, err := cst.RandomOriented(cst.NewRand(3), 64, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cst.ExactIncumbent(cst.ScheduleExact(tree, set, 500000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerator measures the uniform well-nested generator.
func BenchmarkGenerator(b *testing.B) {
	rng := cst.NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cst.RandomWellNested(rng, 1024, 400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWidth measures the link-width computation (edge congestion).
func BenchmarkWidth(b *testing.B) {
	tree := cst.MustNewTree(1024)
	s, err := cst.RandomWellNested(cst.NewRand(2), 1024, 400)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Width(tree); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleN sweeps the PE count at fixed width, the scaling series
// behind E4/E8.
func BenchmarkScaleN(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096} {
		n := n
		b.Run(benchName(n), func(b *testing.B) {
			tree := cst.MustNewTree(n)
			s := benchWorkload(b, n, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cst.Run(tree, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaleW sweeps the width at fixed N, the series behind E2/E3.
func BenchmarkScaleW(b *testing.B) {
	for _, w := range []int{4, 16, 64, 256} {
		w := w
		b.Run(benchName(w), func(b *testing.B) {
			tree := cst.MustNewTree(1024)
			s := benchWorkload(b, 1024, w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cst.Run(tree, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(v int) string { return strconv.Itoa(v) }
