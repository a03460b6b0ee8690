// Command cstbench regenerates the paper-reproduction experiments (DESIGN.md
// §3, E1–E16) and prints the markdown tables recorded in EXPERIMENTS.md.
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

type options struct {
	exp, out, metricsAddr, auditHTML string
	seed                             int64
	quick, summary, audit            bool
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("cstbench", flag.ContinueOnError)
	o := options{}
	fs.StringVar(&o.exp, "exp", "all", "comma-separated experiment IDs (E1..E16) or \"all\"")
	fs.Int64Var(&o.seed, "seed", 42, "random seed for every experiment")
	fs.BoolVar(&o.quick, "quick", false, "reduced sweep sizes")
	fs.StringVar(&o.out, "out", "", "output file (default stdout)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /trace and /debug/pprof/ on this address during the run")
	fs.BoolVar(&o.summary, "metrics-summary", true, "print a per-experiment metrics summary table")
	fs.BoolVar(&o.audit, "audit", false, "run the power auditor live over the experiments and print its verdict")
	fs.StringVar(&o.auditHTML, "audit-html", "", "write the audit report as HTML to this file (implies -audit)")
	err := fs.Parse(args)
	return o, err
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if err == flag.ErrHelp {
			return
		}
		os.Exit(2) // the flag set has printed the error and usage
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cstbench:", err)
		os.Exit(1)
	}
}

// run executes the selected experiments, writing the report to stdout or
// -out.
func run(o options, stdout io.Writer) error {
	w := stdout
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	reg := cst.NewMetrics()
	tracer := cst.NewTracer(nil, 0)
	cfg := cst.ExperimentConfig{Seed: o.seed, Quick: o.quick, Obs: reg, Trace: tracer}
	var auditor *cst.Auditor
	if o.audit || o.auditHTML != "" {
		auditor = cst.NewAuditor(cst.AuditConfig{Registry: reg})
		cfg.Audit = auditor
	}
	if o.metricsAddr != "" {
		srv, err := cst.ServeMetrics(o.metricsAddr, reg, tracer)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "cstbench: observability endpoint on http://%s (/metrics /trace /debug/pprof/)\n", srv.Addr)
	}
	fmt.Fprintf(w, "# CST/PADR reproduction experiments (seed=%d quick=%v)\n\n", o.seed, o.quick)

	ids := strings.Split(o.exp, ",")
	if o.exp == "all" {
		ids = nil
		for _, e := range cst.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := cst.ExperimentByID(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		// Snapshot before/after so each experiment's table reflects only
		// its own activity while the live registry keeps accumulating.
		before := reg.Snapshot()
		if err := cst.RunExperiment(w, e, cfg); err != nil {
			return err
		}
		if o.summary {
			fmt.Fprintf(w, "Engine metrics for %s:\n\n%s\n", e.ID, cst.MetricsSummary(reg.Snapshot().Sub(before)))
		}
	}

	if auditor == nil {
		return nil
	}
	auditor.Flush()
	rep := auditor.Report()
	fmt.Fprintf(w, "## Power audit\n\n%s\n", rep.Summary())
	if o.auditHTML != "" {
		f, err := os.Create(o.auditHTML)
		if err != nil {
			return err
		}
		if err := rep.WriteHTML(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cstbench: audit report written to %s\n", o.auditHTML)
	}
	if !rep.Clean() {
		return fmt.Errorf("power audit raised %d violation(s)", len(rep.Violations))
	}
	return nil
}
