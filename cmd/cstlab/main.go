// Command cstlab is the perf lab's front end. It sweeps the scheduling
// engines over a parameter grid and compares every count against the
// analytical twin (theorem-exact rounds and word counts, power
// envelopes), sweeps the incremental scheduler against from-scratch runs,
// and prints the twin's closed forms. Latency is measured and printed,
// never judged.
//
// Subcommands:
//
//	cstlab sweep   -n 32,64,128 -w 2,8 -engines padr,sim,online
//	cstlab delta   -n 1024 -active 64 -overlaps 0.5,0.75,0.9
//	cstlab predict -engine padr -workload chain -n 256 -w 16
//
// Exit codes: 0 pass, 1 measured-vs-predicted mismatch or gate failure,
// 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cst/internal/lab"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var code int
	switch os.Args[1] {
	case "sweep":
		code = runSweep(os.Args[2:], os.Stdout, os.Stderr)
	case "delta":
		code = runDelta(os.Args[2:], os.Stdout, os.Stderr)
	case "predict":
		code = runPredict(os.Args[2:], os.Stdout, os.Stderr)
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "cstlab: unknown subcommand %q\n", os.Args[1])
		usage(os.Stderr)
		code = 2
	}
	os.Exit(code)
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: cstlab <subcommand> [flags]

  sweep    run a parameter sweep and compare measured vs predicted counts
  delta    sweep the incremental scheduler over set-overlap ratios, gate the 2x speedup
  predict  print the analytical twin's closed forms for one grid point
`)
}

// parseInts parses a comma-separated integer list ("32,64,128").
func parseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty list")
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func runSweep(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cstlab sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ns       = fs.String("n", "32,64,128", "comma-separated leaf counts (powers of two)")
		ws       = fs.String("w", "2,8", "comma-separated set widths")
		engines  = fs.String("engines", "padr,sim,online", "comma-separated engines (padr, sim, online, hybrid)")
		workload = fs.String("workload", lab.WorkloadChain, "set family: chain, split, random, bitrev or crossing")
		reps     = fs.Int("reps", 5, "timed runs per grid point (median is reported)")
		seed     = fs.Int64("seed", 1, "random-workload seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	nList, err := parseInts(*ns)
	if err != nil {
		fmt.Fprintf(stderr, "cstlab: -n: %v\n", err)
		return 2
	}
	wList, err := parseInts(*ws)
	if err != nil {
		fmt.Fprintf(stderr, "cstlab: -w: %v\n", err)
		return 2
	}

	res, err := lab.RunSweep(lab.SweepConfig{
		Ns: nList, Ws: wList, Engines: splitList(*engines),
		Workload: *workload, Reps: *reps, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(stderr, "cstlab:", err)
		return 2
	}
	fmt.Fprintln(stdout, res.Table())

	if !res.Ok() {
		fmt.Fprintln(stderr, "cstlab: sweep FAILED — measured counts deviate from the analytical twin")
		return 1
	}
	fmt.Fprintln(stderr, "cstlab: sweep ok — all measured counts match the analytical twin")
	return 0
}

func runDelta(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cstlab delta", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n        = fs.Int("n", 1024, "leaf count (power of two)")
		active   = fs.Int("active", 64, "occupied 4-leaf slots in the session set (<= n/4)")
		overlaps = fs.String("overlaps", "0.5,0.75,0.9", "comma-separated set-overlap ratios")
		phases   = fs.Int("phases", 8, "deltas chained per overlap point")
		reps     = fs.Int("reps", 5, "timed laps per overlap point (median is reported)")
		seed     = fs.Int64("seed", 42, "mutation-stream seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ovs, err := parseFloats(*overlaps)
	if err != nil {
		fmt.Fprintf(stderr, "cstlab: -overlaps: %v\n", err)
		return 2
	}

	res, err := lab.RunDeltaSweep(lab.DeltaSweepConfig{
		N: *n, Active: *active, Overlaps: ovs,
		Phases: *phases, Reps: *reps, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(stderr, "cstlab:", err)
		return 2
	}
	fmt.Fprintln(stdout, res.Table())

	if !res.Ok() {
		fmt.Fprintln(stderr, "cstlab: delta sweep FAILED — rounds mismatch or speedup gate missed")
		return 1
	}
	fmt.Fprintln(stderr, "cstlab: delta sweep ok — incremental schedules match from-scratch and meet the speedup gate")
	return 0
}

// parseFloats parses a comma-separated float list ("0.5,0.9").
func parseFloats(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty list")
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func runPredict(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cstlab predict", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		engine   = fs.String("engine", lab.EnginePADR, "engine the prediction is for")
		workload = fs.String("workload", lab.WorkloadChain, "set family: chain, split, random, bitrev or crossing")
		n        = fs.Int("n", 64, "leaf count (power of two)")
		w        = fs.Int("w", 4, "set width")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p, err := lab.Predict(*engine, *workload, *n, *w)
	if err != nil {
		fmt.Fprintln(stderr, "cstlab:", err)
		return 2
	}
	fmt.Fprintf(stdout, "engine=%s workload=%s N=%d w=%d\n", *engine, *workload, *n, *w)
	fmt.Fprintf(stdout, "rounds        %d   (Theorems 4/5: width-w sets schedule in exactly w rounds)\n", p.Rounds)
	if p.Phase1Words > 0 {
		fmt.Fprintf(stdout, "phase1 words  %d   (2N-2 control words up the tree)\n", p.Phase1Words)
		fmt.Fprintf(stdout, "phase2 words  %d   (2N-2 words per round, w rounds)\n", p.Phase2Words)
	} else {
		fmt.Fprintf(stdout, "phase words   n/a  (engine does not expose word counts)\n")
	}
	fmt.Fprintf(stdout, "power units   <= %d (envelope)\n", p.MaxUnitsBound)
	return 0
}
