// Command perfbench is the repository's benchmark: it runs one of three
// workloads — a paper δ-sweep, an open-loop relay ingest, and a
// journaled fleet campaign — for a fixed amount of work per repetition,
// checks the outputs, and prints the metrics as one JSON object on the
// last line of standard output.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics of a separately traced run.
// See README.md in this directory for the workloads, the metrics and
// the noise evidence behind their choice.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// procStart approximates the process start: package variables are
// initialised before main runs, right after the runtime starts.
var procStart = time.Now()

// Seeds the README names: DefaultSeed for tuning and HoldoutSeed for
// confirming a claim on inputs not used while writing the change.
const (
	DefaultSeed = 1
	HoldoutSeed = 20260817
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: paper-sweep, relay-ingest or fleet-campaign")
		seed    = fs.Int64("seed", DefaultSeed, "workload seed; every input is generated from it")
		seconds = fs.Int("seconds", 20, "how long to repeat the workload's fixed work")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		tiny    = fs.Bool("tiny", false, "run each workload at test size")
		out     = fs.String("out", ".bench_build/perfbench", "directory for the traced run's spans and the scratch files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	opts := runOptions{
		seed:   *seed,
		tiny:   *tiny,
		budget: time.Duration(*seconds) * time.Second,
		outDir: *out,
	}
	var res *result
	var err error
	if *traced == 1 {
		res, err = tracedRun(w, opts)
	} else {
		res, err = plainRun(w, opts)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rec, err := json.Marshal(res.record)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "run_record %s\n", rec)
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
