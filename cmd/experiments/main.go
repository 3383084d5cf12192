// Command experiments regenerates every figure and quantitative claim of
// the paper and prints a report with one table per experiment.
//
// Usage:
//
//	experiments [-fig2 60s] [-only fig1d] [-csv]
//
// Exit status: 1 when an experiment fails to run or a paper-pinned check
// fails (the demo cell's invariants included), 2 on a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"fibbing.net/fibbing/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, runs every experiment
// and prints the selected ones, returning the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig2 := fs.Duration("fig2", 60*time.Second, "duration of the Figure 2 demo cell; shorter than its last wave (35s) is an error")
	only := fs.String("only", "", "run only the experiment with this id (e.g. fig1d, fig2-with)")
	csv := fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	results, err := experiments.All(*fig2)
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}
	var ids []string
	failed := false
	for _, r := range results {
		ids = append(ids, r.ID)
		if *only != "" && r.ID != *only {
			continue
		}
		if *csv {
			fmt.Fprintf(stdout, "# %s: %s\n", r.ID, r.Caption)
			if err := r.Table.RenderCSV(stdout); err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
				return 1
			}
			fmt.Fprintln(stdout)
		} else {
			r.Render(stdout)
		}
		failed = failed || len(r.Check) > 0
	}
	// Nothing printed yet for an unknown id: it is a usage error.
	if *only != "" && !slices.Contains(ids, *only) {
		fmt.Fprintf(stderr, "experiments: no experiment %q; ids: %s\n", *only, strings.Join(ids, ", "))
		return 2
	}
	if failed {
		fmt.Fprintln(stderr, "experiments: some paper-pinned checks FAILED (see above)")
		return 1
	}
	return 0
}
