// Command xehe-bench regenerates every table and figure of the paper's
// evaluation section from the simulated devices, and runs the serving
// stack's sweeps from one scenario table (sweep.go, scenarios.go).
//
// Usage:
//
//	xehe-bench                        # every table and figure
//	xehe-bench -fig 12                # one figure; -tab 1 for Table I
//	xehe-bench -sweep all -jobs 200   # the six serving sweeps, JSON rows on stdout
//	xehe-bench -sweep graph,chaos     # some of them
//	xehe-bench -trace t.json          # the trace sweep, its tracing-on timeline written to t.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the program. It returns the exit code: 2 for bad usage —
// unknown names are rejected before anything runs — and 1 for a sweep
// that failed to run or to hold what it enforces.
func run(args []string, stdout, stderr io.Writer) int {
	figNames, sweepNames := []string{"all"}, []string{"all"}
	for _, f := range figures {
		figNames = append(figNames, f.name)
	}
	for _, sc := range scenarios {
		sweepNames = append(sweepNames, sc.name)
	}
	fs := flag.NewFlagSet("xehe-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "figure to reproduce: "+strings.Join(figNames, ", "))
	tab := fs.String("tab", "", "table to reproduce: 1")
	sweep := fs.String("sweep", "", "serving sweeps to run, comma-separated: "+strings.Join(sweepNames, ", "))
	jobs := fs.Int("jobs", 200, "jobs per sweep configuration")
	tracePath := fs.String("trace", "", "run the trace sweep (too) and write its tracing-on timeline, Perfetto/Chrome JSON, to this file")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	var sweeps []string
	if *sweep != "" {
		sweeps = strings.Split(*sweep, ",")
	}
	unknown := slices.IndexFunc(sweeps, func(s string) bool { return !slices.Contains(sweepNames, s) })
	bad := ""
	switch {
	case *fig != "" && !slices.Contains(figNames, *fig):
		bad = fmt.Sprintf("unknown figure %q; valid: %s", *fig, strings.Join(figNames, ", "))
	case *tab != "" && *tab != "1":
		bad = fmt.Sprintf("unknown table %q; valid: 1", *tab)
	case unknown >= 0:
		bad = fmt.Sprintf("unknown sweep %q; valid: %s", sweeps[unknown], strings.Join(sweepNames, ", "))
	case *jobs < 1:
		bad = fmt.Sprintf("-jobs must be at least 1, got %d", *jobs)
	}
	if bad != "" {
		fmt.Fprintln(stderr, "xehe-bench:", bad)
		return 2
	}
	if *tracePath != "" {
		sweeps = append(sweeps, "trace")
	}

	if len(sweeps) > 0 {
		if err := runSweeps(sweeps, *jobs, *tracePath, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "xehe-bench:", err)
			return 1
		}
	} else if *fig == "" && *tab == "" {
		*fig = "all"
	}
	printFigures(stdout, *fig, *tab)
	return 0
}
