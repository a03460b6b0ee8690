// Command servebench is the repository's end-to-end benchmark: it starts a
// fresh cstserved for every run, drives it from one closed-loop load
// generator pinned to the other core, checks every answer, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Per-layer numbers come from the server's /metrics, read before and after
// the timed window, and from an in-process replay of the same seeded
// requests through each layer's public functions with a span around every
// call. The spans are written to <out>/spans/ when the run ends.
//
// Run it through run.sh, which builds both binaries from the source tree:
//
//	bash servebench/run.sh --workload pair-burst --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cst/internal/stats"
	"cst/internal/wire"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	server   string
	out      string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "traffic mix: pair-light, pair-burst, set-random or delta-churn")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated request stream")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&o.trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from /metrics and the traced replay")
	fs.StringVar(&o.server, "server", "", "cstserved binary to benchmark")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for span dumps")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, err := findWorkload(o.workload); err != nil {
		return o, err
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be at least 1 (got %d)", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1 (got %d)", o.trace)
	}
	if o.server == "" {
		return o, errors.New("-server is required")
	}
	return o, nil
}

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"server_rss_mb", "MiB", "lower"},
	{"plan_rounds_ratio", "ratio", "lower"},
	{"plan_units_per_comm", "units", "lower"},
}

// reportedOnly are end-to-end metrics printed with every run but left out
// of BENCHMARK.json, because on a shared 2-vCPU Xeon VM they follow the
// host's CPU-speed swings further than the largest regression bound a
// gated metric may carry: the p99 amplifies them (its interquartile spread
// over ten pair-burst runs reached 0.33 of the median), and pair-light's
// server CPU per request, mostly timer and network wake-ups, moved its
// ten-run median between 64 and 116 us on unchanged code.
var reportedOnly = []metricDef{
	{"latency_p99_us", "us", "lower"},
	{"server_cpu_us_per_req", "us", "lower"},
}

var perLayer = []metricDef{
	{"serve.server_p50_us", "us", "lower"},
	{"serve.transport_us", "us", "lower"},
	{"serve.batch_fill_ratio", "ratio", "higher"},
	{"serve.small_batch_share", "ratio", "lower"},
	{"serve.flushes_per_kreq", "count", "lower"},
	{"serve.rejected_ratio", "ratio", "lower"},
	{"serve.schedule_ns", "ns", "lower"},
	{"serve.handler_ns", "ns", "lower"},
	{"serve.plan_ns", "ns", "lower"},
	{"wire.encode_ns", "ns", "lower"},
	{"wire.decode_ns", "ns", "lower"},
	{"wire.frame_bytes", "B", "lower"},
	{"wire.allocs_per_frame", "count", "lower"},
	{"online.batch_ns", "ns", "lower"},
	{"online.dispatches_per_batch", "count", "lower"},
	{"online.deferred_share", "ratio", "lower"},
	{"online.delta_ns", "ns", "lower"},
	{"online.fallback_share", "ratio", "lower"},
	{"padr.run_ns", "ns", "lower"},
	{"padr.run_allocs", "count", "lower"},
	{"padr.run_bytes", "B", "lower"},
	{"padr.apply_ns", "ns", "lower"},
	{"padr.apply_allocs", "count", "lower"},
	{"padr.units_per_run", "units", "lower"},
	{"hybrid.schedule_ns", "ns", "lower"},
	{"hybrid.residual_share", "ratio", "lower"},
	{"hybrid.coloring_win_share", "ratio", "lower"},
	{"hybrid.batches_per_set", "count", "lower"},
	{"general.color_ns", "ns", "lower"},
	{"general.exhausted_share", "ratio", "lower"},
	{"comm.decompose_ns", "ns", "lower"},
	{"workload.repeated_set_share", "ratio", "lower"},
	{"unattributed_share", "ratio", "lower"},
}

// serverCPUEnv carries the server's CPU across the pinning re-exec.
const serverCPUEnv = "SERVEBENCH_SERVER_CPU"

// pin re-executes the benchmark under taskset on the second allowed CPU
// with GOMAXPROCS=1, leaving the first CPU to the server, and returns the
// server's CPU ("" when the two cannot be separated). It returns only in
// the pinned process or when pinning is impossible.
func pin() string {
	if cpu, ok := os.LookupEnv(serverCPUEnv); ok {
		return cpu
	}
	runtime.GOMAXPROCS(1)
	cpus := allowedCPUs(procStatus(0, "Cpus_allowed_list"))
	taskset, err := exec.LookPath("taskset")
	if len(cpus) < 2 || err != nil {
		return ""
	}
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	env := withEnv(os.Environ(), serverCPUEnv+"="+strconv.Itoa(cpus[0]), "GOMAXPROCS=1")
	argv := append([]string{"taskset", "-c", strconv.Itoa(cpus[1]), exe}, os.Args[1:]...)
	err = syscall.Exec(taskset, argv, env)
	fmt.Fprintln(os.Stderr, "servebench: cannot pin, running unpinned:", err)
	return ""
}

// withEnv returns env with each KEY=value in kvs set, replacing old values.
func withEnv(env []string, kvs ...string) []string {
	out := make([]string, 0, len(env)+len(kvs))
	for _, e := range env {
		keep := true
		for _, kv := range kvs {
			k, _, _ := strings.Cut(kv, "=")
			if strings.HasPrefix(e, k+"=") {
				keep = false
			}
		}
		if keep {
			out = append(out, e)
		}
	}
	return append(out, kvs...)
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	serverCPU := pin()
	// The generator keeps every latency sample; a larger GC target keeps
	// its collections, which would stall in-flight timings, rare.
	debug.SetGCPercent(400)
	res, err := run(o, serverCPU)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// run executes one benchmark run and prints its report; the returned
// result is the final JSON line.
func run(o options, serverCPU string) (*result, error) {
	w, _ := findWorkload(o.workload)
	printStamp(o, w, serverCPU)

	// Set-up: launch the server several times and keep the last one, so
	// set-up time is a median over launches.
	launches := 5
	if o.trace == 1 {
		launches = 1
	}
	var setups []float64
	var drainFailures []string
	var srv *server
	for i := 0; i < launches; i++ {
		s, d, err := launch(o.server, w, serverCPU, i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < launches-1 {
			if _, _, err := s.stop(); err != nil {
				drainFailures = append(drainFailures, err.Error())
			}
			continue
		}
		srv = s
	}
	running := true
	defer func() {
		if running {
			srv.kill()
		}
	}()
	fmt.Printf("stamp: server pid %d cpus %s GOMAXPROCS=1\n", srv.pid(), procStatus(srv.pid(), "Cpus_allowed_list"))

	win := newWindow(time.Now().Add(warmup), o.seconds, w.slice)
	probe := watchWindow(srv, win)
	results := runLoad(w, srv, o.seed, win)
	<-probe.done
	if probe.err != nil {
		return nil, fmt.Errorf("window probe: %w", probe.err)
	}

	// Answer checks and the plan-quality probe run outside the window.
	var checks checkReport
	switch w.kind {
	case kindSet:
		if err := checkSetSample(results, &checks); err != nil {
			return nil, err
		}
	case kindDelta:
		if err := checkDeltaFinal(results, w.pes, &checks); err != nil {
			return nil, err
		}
	}
	q, err := probeQuality(srv.wireAddr, o.seed, &checks)
	if err != nil {
		return nil, err
	}
	running = false
	admitted, responded, err := srv.stop()
	if err != nil {
		drainFailures = append(drainFailures, err.Error())
	}

	var latNS []int64
	var attempted, failed, answered int
	for _, r := range results {
		for _, l := range r.lat {
			latNS = append(latNS, l...)
		}
		for _, n := range r.answered {
			answered += n
		}
		attempted += r.attempted
		failed += r.failed
	}
	if attempted == 0 || len(latNS) == 0 {
		return nil, fmt.Errorf("no request answered in the window: %v", connErrors(results))
	}
	failed += checks.failed + len(drainFailures)
	lat := summarise(latNS)
	secs := win.end.Sub(win.start).Seconds()
	sl := perSlice(win, results, probe)

	fmt.Printf("window: %d attempted, %d failed (failed_ratio %.6f), %d answered in %.0fs; drain admitted=%d responded=%d\n",
		attempted, failed, float64(failed)/float64(attempted), answered, secs, admitted, responded)
	fmt.Printf("latency: %d samples, p50 %.1fus, p99 %.1fus, tail p%g %.1fus over the whole window\n",
		lat.n, lat.p50, lat.p99, 100*lat.tailQ, lat.tail)
	fmt.Printf("slices: %d of %.1fs, p%g from at least %d samples each; best slices p50 %.1fus p99 %.1fus %.1f req/s %.2fus cpu/req\n",
		win.slices, secs/float64(win.slices), 100*sl.p99Q, sl.minSamples, sl.p50, sl.p99, sl.rps, sl.cpu)
	fmt.Printf("slices: p50 us %.1f\nslices: p99 us %.1f\nslices: req/s %.1f\nslices: cpu us/req %.2f\n",
		sl.p50s, sl.p99s, sl.rpss, sl.cpus)
	printProperties(w, results, probe, q)
	for _, e := range append(connErrors(results), checks.failures...) {
		fmt.Println("failure:", e)
	}
	for _, e := range drainFailures {
		fmt.Println("failure: drain:", e)
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricOut{}}
	if o.trace == 0 {
		values := map[string]float64{
			"setup_s":               stats.Median(setups),
			"throughput_rps":        sl.rps,
			"latency_p50_us":        sl.p50,
			"latency_p99_us":        sl.p99,
			"server_cpu_us_per_req": sl.cpu,
			"server_rss_mb":         probe.rssMB,
			"plan_rounds_ratio":     q.roundsRatio,
			"plan_units_per_comm":   q.unitsPerComm,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricOut{Value: values[m.name], Unit: m.unit}
			fmt.Printf("metric %-24s %14.4f %s\n", m.name, values[m.name], m.unit)
		}
		for _, m := range reportedOnly {
			fmt.Printf("report %-24s %14.4f %s (not in BENCHMARK.json)\n", m.name, values[m.name], m.unit)
		}
		return res, nil
	}

	rp, err := runReplay(w, o.seed)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	layer := layerFromMetrics(w, probe, lat.p50)
	for k, v := range rp.m {
		layer[k] = v
	}
	layer["unattributed_share"] = unattributed(w, rp, lat.p50)
	layer["workload.repeated_set_share"] = repeatedShare(results)
	printSelfTimes(rp.rec)
	spans := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
	if err := rp.rec.write(spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Println("spans:", spans)
	for _, m := range perLayer {
		res.Metrics[m.name] = metricOut{Value: layer[m.name], Unit: m.unit}
		fmt.Printf("metric %-30s %14.4f %s\n", m.name, layer[m.name], m.unit)
	}
	return res, nil
}

func connErrors(results []*connResult) []string {
	var out []string
	for _, r := range results {
		out = append(out, r.errs...)
		for code, n := range r.statuses {
			out = append(out, fmt.Sprintf("%d answers with status %d", n, code))
		}
		if r.wrong > 0 {
			out = append(out, fmt.Sprintf("%d answers failed the inline checks", r.wrong))
		}
	}
	return out
}

// launch starts one server and times it until its first 200 answer of the
// workload's request kind.
func launch(bin string, w workload, cpu string, i int) (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(bin, w, cpu)
	if err != nil {
		return nil, 0, err
	}
	if err := firstAnswer(w, s, i); err != nil {
		s.kill()
		return nil, 0, fmt.Errorf("set-up request: %w", err)
	}
	return s, time.Since(t0), nil
}

// firstAnswer sends one request of the workload's kind and requires 200.
func firstAnswer(w workload, s *server, i int) error {
	if w.http {
		client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
		resp, err := client.Post("http://"+s.httpAddr+"/schedule", "application/json", strings.NewReader(`{"src":0,"dst":1}`))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	c, err := dialWire(s.wireAddr, time.Now().Add(10*time.Second))
	if err != nil {
		return err
	}
	defer c.close()
	status := 0
	switch w.kind {
	case kindPair:
		if err := c.sendPair(1, 0, 1); err != nil {
			return err
		}
		if err := c.bw.Flush(); err != nil {
			return err
		}
		body, err := c.next(wire.TypeResponse)
		if err != nil {
			return err
		}
		var resp wire.Response
		if err := wire.ParseResponseV(body, &resp, c.version); err != nil {
			return err
		}
		status = resp.Status
	case kindSet:
		var resp wire.SetResponse
		set := setupSet(w.pes)
		req := wire.SetRequest{ID: 1, N: set.N, Pairs: toPairs(nil, set.Comms)}
		if err := c.roundTripSet(&req, &resp); err != nil {
			return err
		}
		status = resp.Status
	case kindDelta:
		// A session id no load connection uses.
		var resp wire.DeltaResponse
		req := wire.DeltaRequest{ID: 1, Session: 1<<40 + uint64(i), Add: [][2]int{{0, 1}}}
		if err := c.roundTripDelta(&req, &resp); err != nil {
			return err
		}
		status = resp.Status
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	return nil
}

// windowProbe samples the server over the window: /metrics at both
// edges, CPU time at every slice boundary and, at the end, peak RSS.
type windowProbe struct {
	done          chan struct{}
	before, after expo
	cpu           []int64 // cpu[k] at the start of slice k; cpu[slices] at the end
	rssMB         float64
	err           error
}

func watchWindow(srv *server, win window) *windowProbe {
	p := &windowProbe{done: make(chan struct{}), cpu: make([]int64, win.slices+1)}
	go func() {
		defer close(p.done)
		time.Sleep(time.Until(win.start))
		if p.before, p.err = scrape(srv.httpAddr); p.err != nil {
			return
		}
		for k := range p.cpu {
			time.Sleep(time.Until(win.sliceStart(k)))
			if p.cpu[k], p.err = cpuNanos(srv.pid()); p.err != nil {
				return
			}
		}
		if p.after, p.err = scrape(srv.httpAddr); p.err != nil {
			return
		}
		p.rssMB, p.err = peakRSSMB(srv.pid())
	}()
	return p
}

// sliceStats are the window metrics taken over slices. A shared virtual
// machine can switch between faster and slower CPU states for seconds at a
// time, independent of the code under test (a 2-vCPU Xeon VM showed swings
// of up to 2.5x in set-planning time); a median across slices then reports
// whichever state dominated the run. Each metric is therefore its best
// slice (lowest latency and CPU per request, highest throughput): the
// run's figure with outside interference left out.
type sliceStats struct {
	rps, p50, p99, cpu     float64
	p99Q                   float64 // the percentile p99 stands for (lower if a slice is small)
	minSamples             int
	p50s, p99s, rpss, cpus []float64 // per slice, for the report
}

// best returns the smallest of xs, or the largest when higher is better.
func best(xs []float64, higherBetter bool) float64 {
	if higherBetter {
		return stats.Max(xs)
	}
	return stats.Min(xs)
}

func perSlice(win window, results []*connResult, p *windowProbe) sliceStats {
	secs := win.end.Sub(win.start).Seconds() / float64(win.slices)
	var rps, p50, p99, cpu []float64
	out := sliceStats{p99Q: 0.99, minSamples: -1}
	for k := 0; k < win.slices; k++ {
		var lat []int64
		answered := 0
		for _, r := range results {
			lat = append(lat, r.lat[k]...)
			answered += r.answered[k]
		}
		if answered == 0 || len(lat) == 0 {
			continue
		}
		st := summarise(lat)
		out.p99Q = math.Min(out.p99Q, st.p99Q)
		if out.minSamples < 0 || st.n < out.minSamples {
			out.minSamples = st.n
		}
		rps = append(rps, float64(answered)/secs)
		p50 = append(p50, st.p50)
		p99 = append(p99, st.p99)
		cpu = append(cpu, float64(p.cpu[k+1]-p.cpu[k])/1e3/float64(answered))
	}
	out.rps, out.p50, out.p99, out.cpu = best(rps, true), best(p50, false), best(p99, false), best(cpu, false)
	out.p50s, out.p99s, out.rpss, out.cpus = p50, p99, rps, cpu
	return out
}

// layerFromMetrics derives the serve-layer metrics from the window's
// /metrics delta.
func layerFromMetrics(w workload, p *windowProbe, clientP50 float64) map[string]float64 {
	d := p.after.sub(p.before)
	m := map[string]float64{}
	proto := "wire"
	if w.http {
		proto = "http"
	}
	if w.kind == kindSet {
		m["serve.server_p50_us"] = histQuantile(d.buckets("cst_hybrid_plan_seconds", ""), 0.5) * 1e6
	} else {
		m["serve.server_p50_us"] = p.after[`cst_serve_latency{protocol="`+proto+`",quantile="0.5"}`] * 1e6
	}
	m["serve.transport_us"] = clientP50 - m["serve.server_p50_us"]
	reqs := d["cst_serve_requests_total"]
	batches := d["cst_serve_batch_size_count"]
	if batches > 0 {
		m["serve.batch_fill_ratio"] = d["cst_serve_batch_size_sum"] / batches / batchMax
		m["serve.small_batch_share"] = countAtMost(d.buckets("cst_serve_batch_size", ""), batchMax/2) / batches
	}
	if reqs > 0 {
		m["serve.flushes_per_kreq"] = d["cst_serve_flushes_total"] / reqs * 1000
		m["serve.rejected_ratio"] = d["cst_serve_rejected_total"] / reqs
	}
	return m
}

// unattributed is the share of the client p50 that the in-process spans of
// the request's server-side path do not cover: the top serve entry point
// plus, on the wire, one decode and one encode.
func unattributed(w workload, rp *replay, clientP50 float64) float64 {
	var inside float64 // ns
	switch {
	case w.http:
		inside = rp.m["serve.handler_ns"]
	case w.kind == kindSet:
		inside = rp.m["serve.plan_ns"] + rp.m["wire.decode_ns"] + rp.m["wire.encode_ns"]
	default:
		inside = rp.m["serve.schedule_ns"] + rp.m["wire.decode_ns"] + rp.m["wire.encode_ns"]
	}
	return (clientP50*1e3 - inside) / (clientP50 * 1e3)
}

// repeatedShare is the share of the window's sets the client had already
// sent (0 for workloads without sets).
func repeatedShare(results []*connResult) float64 {
	var sets, repeated int
	for _, r := range results {
		sets += len(r.setHashes) + r.repeated
		repeated += r.repeated
	}
	if sets == 0 {
		return 0
	}
	return float64(repeated) / float64(sets)
}

// printProperties prints the measured workload shares that claims about
// one mechanism must cite.
func printProperties(w workload, results []*connResult, p *windowProbe, q quality) {
	d := p.after.sub(p.before)
	batches := d["cst_serve_batch_size_count"]
	small := 0.0
	if batches > 0 {
		small = countAtMost(d.buckets("cst_serve_batch_size", ""), batchMax/2) / batches
	}
	var sets, repeated, residual, coloring, deltas, fallbacks int
	for _, r := range results {
		sets += len(r.setHashes)
		repeated += r.repeated
		residual += r.residualSets
		coloring += r.coloringWins
		deltas += r.deltas
		fallbacks += r.fallbacks
	}
	fmt.Printf("properties: %s flushes %.0f, at most BatchMax/2 (timer-triggered) %.4f; sets %d, repeated %d, with residual coloring %d, coloring wins %d; deltas %d, fallbacks %d; probe %d sets\n",
		w.name, batches, small, sets+repeated, repeated, residual, coloring, deltas, fallbacks, q.sets)
}

// printStamp prints the run's provenance: machine, placement, toolchain,
// source, seed and server flags.
func printStamp(o options, w workload, serverCPU string) {
	fmt.Printf("stamp: workload %s seed %d seconds %d trace %d\n", w.name, o.seed, o.seconds, o.trace)
	online, _ := os.ReadFile("/sys/devices/system/cpu/online")
	fmt.Printf("stamp: nproc %d go %s source %s\n", len(allowedCPUs(string(online))), runtime.Version(), sourceStamp())
	placement := "separate cores"
	if serverCPU == "" {
		placement = "unpinned"
	}
	fmt.Printf("stamp: generator pid %d cpus %s GOMAXPROCS=%d; server cpu %q GOMAXPROCS=1 (%s)\n",
		os.Getpid(), procStatus(0, "Cpus_allowed_list"), runtime.GOMAXPROCS(0), serverCPU, placement)
	fmt.Printf("stamp: server flags %s\n", strings.Join(serverFlags(w), " "))
}

// sourceStamp names the code under test: the git commit when the tree is a
// git checkout, and always a digest of the Go sources outside the
// benchmark's own directory.
func sourceStamp() string {
	sha := "none"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "servebench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("git:%s tree:%s (%d files)", sha, hex.EncodeToString(h.Sum(nil))[:16], len(files))
}
