// Command cstserved serves CST scheduling over HTTP/JSON: a batching
// request service built on the online dispatcher, with bounded admission
// queues, 429 backpressure, per-request deadlines, and a graceful drain on
// SIGTERM/SIGINT that answers every admitted request before exiting. The
// same listener carries the observability surface (/metrics, /healthz,
// /trace, /trace/flight, /debug/pprof) and an optional live power auditor;
// -trace-sample and -flight-k arm request-scoped span tracing.
//
// With -wire-addr the same pool additionally listens for the binary wire
// protocol (persistent pipelined TCP connections, see internal/wire): the
// low-latency path load generators and sidecars should prefer, with the
// HTTP listener kept for humans, dashboards and ad-hoc clients.
//
// Examples:
//
//	cstserved -addr :8080 -pes 64 -shards 4
//	cstserved -addr :8080 -wire-addr :8081
//	cstserved -addr :8080 -batch-max 64 -deadline 250ms
//	cstserved -addr :8080 -audit -chaos 8 -seed 7   # fault-injected soak
//
// See SERVING.md for the API and drain protocol.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cst"
)

type options struct {
	addr          string
	wireAddr      string
	wirePipeline  int
	pes           int
	shards        int
	queueDepth    int
	batchMax      int
	deadline      time.Duration
	drainGrace    time.Duration
	traceRing     int
	traceOut      string
	traceSample   float64
	flightK       int
	audit         bool
	engineMetrics bool
	chaos         int
	seed          int64
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("cstserved", flag.ContinueOnError)
	o := options{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.wireAddr, "wire-addr", "", "also listen for the binary wire protocol on this TCP address (empty = disabled)")
	fs.IntVar(&o.wirePipeline, "wire-pipeline", 0, "in-flight requests allowed per wire connection (0 = default)")
	fs.IntVar(&o.pes, "pes", 64, "processing elements per shard fabric (power of two)")
	fs.IntVar(&o.shards, "shards", 2, "independent CST fabrics, one dispatcher worker each")
	fs.IntVar(&o.queueDepth, "queue-depth", 64, "admission queue depth per shard (full queues answer 429)")
	fs.IntVar(&o.batchMax, "batch-max", 32, "most requests one flush takes from a shard's queue")
	fs.Duration("batch-wait", 0, "accepted for compatibility, ignored: a shard flushes whatever is queued as soon as it is free")
	fs.DurationVar(&o.deadline, "deadline", 0, "default per-request deadline (0 = none; requests may override)")
	fs.DurationVar(&o.drainGrace, "drain-grace", 10*time.Second, "drain budget on SIGTERM before giving up")
	fs.IntVar(&o.traceRing, "trace-ring", 4096, "trace ring capacity for /trace")
	fs.StringVar(&o.traceOut, "trace-out", "", "also stream trace events to this JSONL file")
	fs.Float64Var(&o.traceSample, "trace-sample", 0, "head-sample this fraction of requests into span traces (0 = errors only, 1 = all)")
	fs.IntVar(&o.flightK, "flight-k", cst.DefaultFlightK, "span trees pinned by the flight recorder per class (slowest, errored) for /trace/flight; 0 disables")
	fs.BoolVar(&o.audit, "audit", false, "attach a live power auditor to the trace stream; report on drain")
	fs.BoolVar(&o.engineMetrics, "engine-metrics", false, "thread metrics/trace into the shard engines (cst_online_*/cst_padr_* series)")
	fs.IntVar(&o.chaos, "chaos", 0, "inject this many random faults per shard (0 = none)")
	fs.Int64Var(&o.seed, "seed", 1, "chaos plan seed")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.shards <= 0 {
		return o, fmt.Errorf("cstserved: -shards must be positive (got %d)", o.shards)
	}
	if o.chaos < 0 {
		return o, fmt.Errorf("cstserved: -chaos must be non-negative (got %d)", o.chaos)
	}
	if o.traceSample < 0 || o.traceSample > 1 {
		return o, fmt.Errorf("cstserved: -trace-sample must be in [0, 1] (got %g)", o.traceSample)
	}
	return o, nil
}

// chaosRounds is the simulated-round window a -chaos fault plan spans.
const chaosRounds = 64

// chaosPlan draws the -chaos fault plan each shard runs under: -chaos
// random faults over a chaosRounds window, seeded by -seed (nil without
// -chaos).
func chaosPlan(o options) ([]cst.Fault, error) {
	if o.chaos == 0 {
		return nil, nil
	}
	tree, err := cst.NewTree(o.pes)
	if err != nil {
		return nil, fmt.Errorf("cstserved: -pes: %w", err)
	}
	return cst.RandomFaults(cst.NewRand(o.seed), tree, chaosRounds, o.chaos, 0), nil
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers, as on the obs endpoint: a client that stalls mid-header is
// disconnected instead of holding its connection forever.
const readHeaderTimeout = 10 * time.Second

// server bundles the pool, the HTTP listener and the observability
// backends so drain can tear everything down in order.
type server struct {
	opts      options
	pool      *cst.ServePool
	planner   *cst.ServePlanner
	srv       *http.Server
	ln        net.Listener
	wireSrv   *cst.WireServer
	wireLn    net.Listener
	reg       *cst.Metrics
	tracer    *cst.Tracer
	auditor   *cst.Auditor
	traceFile *os.File
	out       io.Writer
}

// newServer builds the pool and binds the listener; serving starts with
// (*server).serve.
func newServer(o options, out io.Writer) (*server, error) {
	faults, err := chaosPlan(o)
	if err != nil {
		return nil, err
	}
	s := &server{opts: o, reg: cst.NewMetrics(), out: out}
	var sink io.Writer
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return nil, fmt.Errorf("cstserved: -trace-out: %w", err)
		}
		s.traceFile = f
		sink = f
	}
	s.tracer = cst.NewTracer(sink, o.traceRing)
	s.tracer.SetSampleRate(o.traceSample)
	if o.flightK > 0 {
		s.tracer.SetFlight(cst.NewFlightRecorder(o.flightK))
	}
	if o.audit {
		s.auditor = cst.NewAuditor(cst.AuditConfig{Registry: s.reg})
		s.tracer.SetSink(s.auditor.Observe)
	}
	pool, err := cst.NewServePool(cst.ServeConfig{
		PEs:             o.pes,
		Shards:          o.shards,
		QueueDepth:      o.queueDepth,
		BatchMax:        o.batchMax,
		DefaultDeadline: o.deadline,
		Registry:        s.reg,
		Tracer:          s.tracer,
		Faults:          faults,
		EngineMetrics:   o.engineMetrics,
	})
	if err != nil {
		if s.traceFile != nil {
			s.traceFile.Close()
		}
		return nil, err
	}
	s.pool = pool
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		if s.traceFile != nil {
			s.traceFile.Close()
		}
		return nil, fmt.Errorf("cstserved: listen %s: %w", o.addr, err)
	}
	s.ln = ln
	// The set planner is shared by both transports; its replay trace joins
	// the pool's on the same tracer, so an attached auditor bills hybrid
	// plans too.
	s.planner = cst.NewServePlanner(cst.ServePlannerConfig{Registry: s.reg, Tracer: s.tracer})
	s.srv = &http.Server{Handler: cst.NewServeHandler(pool, s.planner, s.reg, s.tracer),
		ReadHeaderTimeout: readHeaderTimeout}
	if o.wireAddr != "" {
		wln, err := net.Listen("tcp", o.wireAddr)
		if err != nil {
			ln.Close()
			if s.traceFile != nil {
				s.traceFile.Close()
			}
			return nil, fmt.Errorf("cstserved: -wire-addr %s: %w", o.wireAddr, err)
		}
		s.wireLn = wln
		s.wireSrv = cst.NewWireServer(pool, cst.WireConfig{
			MaxPipeline: o.wirePipeline,
			Planner:     s.planner,
			Registry:    s.reg,
			Tracer:      s.tracer,
		})
	}
	return s, nil
}

func (s *server) addr() string { return s.ln.Addr().String() }

// wireAddr returns the bound wire listener address ("" when disabled).
func (s *server) wireAddr() string {
	if s.wireLn == nil {
		return ""
	}
	return s.wireLn.Addr().String()
}

// serve launches the workers, the HTTP loop and (when configured) the
// wire loop in the background.
func (s *server) serve() {
	s.pool.Start()
	go func() { _ = s.srv.Serve(s.ln) }()
	if s.wireSrv != nil {
		go func() { _ = s.wireSrv.Serve(s.wireLn) }()
	}
}

// drain runs the shutdown protocol: stop admitting and flush every queue
// (bounded by the drain grace) — settling every in-flight request,
// pipelined wire requests included — then shut the wire listener (its
// writers flush the settled answers before the connections close), then
// let in-flight HTTP responses finish, then close the trace file and
// report. A drain that loses a request or exceeds its budget returns an
// error.
func (s *server) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.drainGrace)
	defer cancel()
	drainErr := s.pool.Drain(ctx)
	if s.wireSrv != nil {
		if err := s.wireSrv.Shutdown(ctx); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
	}
	if s.traceFile != nil {
		_ = s.traceFile.Close()
	}
	st := s.pool.Snapshot()
	fmt.Fprintf(s.out, "cstserved: drained: admitted=%d responded=%d shards=%d\n",
		st.Admitted, st.Responded, st.Shards)
	if s.auditor != nil {
		s.auditor.Flush()
		fmt.Fprintln(s.out, s.auditor.Report().Summary())
	}
	return drainErr
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if err == flag.ErrHelp {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	s, err := newServer(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Catch the drain signal before the banner announces readiness: a
	// client may send SIGTERM as soon as its first request is answered.
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	s.serve()
	fmt.Printf("cstserved: serving on %s (pes=%d shards=%d queue=%d batch=%d)\n",
		s.addr(), o.pes, o.shards, o.queueDepth, o.batchMax)
	if wa := s.wireAddr(); wa != "" {
		fmt.Printf("cstserved: wire protocol on %s\n", wa)
	}
	<-ch
	fmt.Println("cstserved: signal received, draining")
	if err := s.drain(); err != nil {
		fmt.Fprintln(os.Stderr, "cstserved:", err)
		os.Exit(1)
	}
}
