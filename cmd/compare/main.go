// Command compare is the differential campaign comparator: it loads two
// suite runs from their content-addressed cache store files, pairs the
// campaigns by name, and gates each pair statistically — a bootstrap
// confidence interval on the median shift, oriented by the engine's metric
// direction, with a practical-significance floor. The output is a
// deterministic machine-readable verdict file (pass / regressed / improved
// / incomparable per campaign, with effect sizes) and, optionally, a
// markdown report.
//
// The exit status is the gate: 0 when nothing regressed and every campaign
// was comparable, 1 otherwise — so a CI job can run a suite twice and fail
// the build on a statistically backed slowdown.
//
// With -trend the comparator switches from two runs to N: the argument is
// an embedded result store (internal/store) whose pinned runs form the
// history, and every campaign's per-run median trajectory is judged for
// sustained monotone drift — the slow decay a pairwise gate between
// adjacent runs never sees. Exit status 0 means nothing drifts in the
// worse direction and every campaign was judgeable.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"opaquebench/internal/compare"
)

const usage = `Usage: compare [flags] <baseline-store> <candidate-store>
       compare -trend [flags] <result-store>

Compare two suite runs campaign by campaign (paired by name) and gate on
statistically backed regressions. Both arguments are suite result store
files (cmd/suite run -cache-store); the comparison opens them read-only,
replays the cached raw records in memory and touches neither store. A
legacy cache directory must first be imported with
"suite store import <store> <dir>".

Exit status 0 means every campaign passed or improved; any regressed or
incomparable campaign exits 1.

In -trend mode the single argument is an embedded result store whose
pinned runs (cmd/suite store import -run) form the history, oldest first.
Every campaign's per-run median trajectory is judged for sustained
monotone drift, with the same bootstrap CI and practical-significance
floor applied to the first-vs-last shift. Exit status 0 means nothing
drifts in the worse direction and every campaign was judgeable.
`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "compare:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), usage, "\nFlags:\n")
		fs.PrintDefaults()
	}
	out := fs.String("o", "", "write the machine-readable verdict JSON to this file")
	md := fs.String("md", "", "write a markdown comparison report to this file")
	level := fs.Float64("level", 0, "bootstrap confidence level (default 0.99)")
	reps := fs.Int("reps", 0, "bootstrap replications (default 2000)")
	seed := fs.Uint64("seed", 0, "bootstrap seed (default 1)")
	minShift := fs.Float64("min-shift", 0, "practical-significance floor on the relative median shift (default 0.01)")
	quiet := fs.Bool("q", false, "suppress the per-campaign verdict lines")
	trend := fs.Bool("trend", false, "judge the pinned runs of a result store for sustained drift instead of comparing two stores")
	last := fs.Int("last", 0, "with -trend, restrict the window to the most recent N runs (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	gate := compare.Gate{
		Level:       *level,
		Reps:        *reps,
		Seed:        *seed,
		MinRelShift: *minShift,
	}
	if *trend {
		if fs.NArg() != 1 {
			return fmt.Errorf("-trend wants exactly one result-store argument, got %d\n\n%s", fs.NArg(), usage)
		}
		if *md != "" {
			return fmt.Errorf("-md is not supported with -trend")
		}
		return runTrend(fs.Arg(0), *last, gate, *out, *quiet, stdout)
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("want exactly two result-store arguments, got %d\n\n%s", fs.NArg(), usage)
	}
	baseline, err := compare.LoadStore(fs.Arg(0))
	if err != nil {
		return err
	}
	candidate, err := compare.LoadStore(fs.Arg(1))
	if err != nil {
		return err
	}
	cmp := compare.Compare(baseline, candidate, gate)

	if !*quiet {
		cmp.WriteText(stdout)
	}
	fmt.Fprintln(stdout, cmp.Summary())
	if *out != "" {
		if err := cmp.WriteJSONFile(*out); err != nil {
			return err
		}
	}
	if *md != "" {
		if err := cmp.WriteMarkdownFile(*md); err != nil {
			return err
		}
	}
	if !cmp.Clean() {
		return fmt.Errorf("%d regressed, %d incomparable", cmp.Regressed, cmp.Incomparable)
	}
	return nil
}

// runTrend is the -trend mode: load the store's pinned runs, judge every
// campaign's trajectory, and gate on worsening drift and unjudged
// campaigns.
func runTrend(storePath string, last int, gate compare.Gate, out string, quiet bool, stdout io.Writer) error {
	runs, err := compare.LoadStoreRuns(storePath)
	if err != nil {
		return err
	}
	if last > 0 && len(runs) > last {
		runs = runs[len(runs)-last:]
	}
	tr, err := compare.TrendAcrossRuns(runs, gate)
	if err != nil {
		return err
	}
	if !quiet {
		tr.WriteText(stdout)
	}
	fmt.Fprintln(stdout, tr.Summary())
	if out != "" {
		if err := tr.WriteJSONFile(out); err != nil {
			return err
		}
	}
	if !tr.Clean() {
		worsening := 0
		for _, ct := range tr.Campaigns {
			if ct.State == compare.TrendDrifting && ct.Direction == "worsening" {
				worsening++
			}
		}
		return fmt.Errorf("%d worsening, %d unjudged", worsening, tr.Unjudged)
	}
	return nil
}
