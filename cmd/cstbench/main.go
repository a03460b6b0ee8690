// Command cstbench regenerates the paper-reproduction experiments (DESIGN.md
// §3, E1–E9) and prints the markdown tables recorded in EXPERIMENTS.md.
//
// Every run is instrumented: engines publish their metric series to one
// long-lived registry and a per-experiment summary table (latency
// quantiles, messages per round, changes per switch) follows each report.
// With -metrics-addr the same registry is also served live over HTTP.
//
// Examples:
//
//	cstbench                 # run everything, full sweeps
//	cstbench -exp E2,E9      # only the power experiments
//	cstbench -quick          # reduced sweeps (CI-sized)
//	cstbench -out report.md  # write to a file
//	cstbench -metrics-addr :9090   # watch progress: curl :9090/metrics
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cst"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiment IDs (E1..E9) or \"all\"")
		seed      = flag.Int64("seed", 42, "random seed for every experiment")
		quick     = flag.Bool("quick", false, "reduced sweep sizes")
		out       = flag.String("out", "", "output file (default stdout)")
		maddr     = flag.String("metrics-addr", "", "serve /metrics, /trace and /debug/pprof/ on this address during the run")
		summary   = flag.Bool("metrics-summary", true, "print a per-experiment metrics summary table")
		audit     = flag.Bool("audit", false, "run the power auditor live over the experiments and print its verdict")
		auditHTML = flag.String("audit-html", "", "write the audit report as HTML to this file (implies -audit)")
	)
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cstbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	reg := cst.NewMetrics()
	tracer := cst.NewTracer(nil, 0)
	cfg := cst.ExperimentConfig{Seed: *seed, Quick: *quick, Obs: reg, Trace: tracer}
	var auditor *cst.Auditor
	if *audit || *auditHTML != "" {
		auditor = cst.NewAuditor(cst.AuditConfig{Registry: reg})
		cfg.Audit = auditor
	}
	if *maddr != "" {
		srv, err := cst.ServeMetrics(*maddr, reg, tracer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cstbench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "cstbench: observability endpoint on http://%s (/metrics /trace /debug/pprof/)\n", srv.Addr)
	}
	fmt.Fprintf(w, "# CST/PADR reproduction experiments (seed=%d quick=%v)\n\n", *seed, *quick)

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = nil
		for _, e := range cst.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := cst.ExperimentByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "cstbench: unknown experiment %q\n", id)
			os.Exit(1)
		}
		// Snapshot before/after so each experiment's table reflects only
		// its own activity while the live registry keeps accumulating.
		before := reg.Snapshot()
		if err := cst.RunExperiment(w, e, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "cstbench:", err)
			os.Exit(1)
		}
		if *summary {
			fmt.Fprintf(w, "Engine metrics for %s:\n\n%s\n", e.ID, cst.MetricsSummary(reg.Snapshot().Sub(before)))
		}
	}

	if auditor != nil {
		auditor.Flush()
		rep := auditor.Report()
		fmt.Fprintf(w, "## Power audit\n\n%s\n", rep.Summary())
		if *auditHTML != "" {
			f, err := os.Create(*auditHTML)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cstbench:", err)
				os.Exit(1)
			}
			if err := rep.WriteHTML(f); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, "cstbench:", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cstbench:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "cstbench: audit report written to %s\n", *auditHTML)
		}
		if !rep.Clean() {
			fmt.Fprintf(os.Stderr, "cstbench: power audit raised %d violation(s)\n", len(rep.Violations))
			os.Exit(1)
		}
	}
}
