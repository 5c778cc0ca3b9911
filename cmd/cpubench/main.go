// Command cpubench runs a white-box CPU campaign against a simulated
// frequency table: it reads (or generates) a randomized design of busy-loop
// workloads, executes every trial in design order through the cpubench
// engine — DVFS governor and OS scheduling interference included — and
// writes the full raw results plus the captured environment. -workers > 1
// (or -indexed at -workers 1) runs trial-indexed with byte-identical
// output (see internal/runner); cmd/suite orchestrates many
// such campaigns with a result cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"opaquebench/internal/core"
	"opaquebench/internal/cpubench"
	"opaquebench/internal/cpusim"
	"opaquebench/internal/doe"
	"opaquebench/internal/ossim"
	"opaquebench/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cpubench:", err)
		os.Exit(1)
	}
}

// parseTable resolves the -table flag: a named Figure 5 ladder, or one or
// more comma-separated GHz values (e.g. "1.6,2.0,3.4").
func parseTable(spec string) (cpusim.FreqTable, error) {
	named, nameErr := cpubench.TableByName(spec)
	if nameErr == nil {
		return named, nil
	}
	var tab cpusim.FreqTable
	for _, part := range strings.Split(spec, ",") {
		ghz, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			if !strings.Contains(spec, ",") {
				// A single non-numeric token is a misspelled name, not a
				// malformed frequency list.
				return nil, nameErr
			}
			return nil, fmt.Errorf("bad frequency %q in table %q", part, spec)
		}
		tab = append(tab, ghz*1e9)
	}
	if err := tab.Validate(); err != nil {
		return nil, err
	}
	return tab, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cpubench", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), `Usage: cpubench [flags]

Run a white-box CPU campaign (methodology stage 2): execute a randomized
design in exactly the designed order against a simulated frequency table —
DVFS governor and OS scheduling interference included — logging every raw
measurement. Sharded runs stay byte-identical to serial ones; see cmd/suite
to orchestrate many campaigns with a result cache.

Flags:
`)
		fs.PrintDefaults()
	}
	table := fs.String("table", "i7", "frequency table: i7, snowball, opteron, p4, or comma-separated GHz values")
	designPath := fs.String("design", "", "design CSV (from designgen); empty generates the default nloops ladder")
	seed := fs.Uint64("seed", 1, "campaign seed")
	governor := fs.String("governor", "performance", "DVFS governor: performance, powersave, ondemand, conservative, userspace")
	targetGHz := fs.Float64("target-ghz", 0, "pinned frequency for -governor userspace (GHz)")
	period := fs.Float64("period", 0.01, "governor sampling period (seconds)")
	policy := fs.String("policy", "other", "scheduling policy: other, rt")
	unpinned := fs.Bool("unpinned", false, "do not pin the benchmark to one core (adds migration noise)")
	gap := fs.Float64("gap", 0.005, "idle seconds between measurements; longer gaps let load-reactive governors ramp back down (the Figure 10 scenario uses 0.03)")
	duty := fs.Float64("duty", 1, "busy fraction per loop repetition, (0, 1]")
	reps := fs.Int("reps", 42, "replicates when generating the default design")
	indexed := fs.Bool("indexed", false, "trial-indexed execution even at -workers 1, so serial output is byte-identical to any sharded run (requires a load-oblivious governor and a pinned scheduler)")
	workers := fs.Int("workers", 1, "parallel campaign workers; >1 shards the design across trial-indexed engines (requires a load-oblivious governor and a pinned scheduler)")
	outPath := fs.String("o", "", "raw results CSV (default stdout)")
	jsonlPath := fs.String("jsonl", "", "raw results JSONL output (optional)")
	envPath := fs.String("env", "", "environment JSON output (optional)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tab, err := parseTable(*table)
	if err != nil {
		return err
	}
	gov, err := cpusim.GovernorByName(*governor, *targetGHz*1e9)
	if err != nil {
		return err
	}
	pol, err := ossim.PolicyByName(*policy)
	if err != nil {
		return err
	}
	if *duty <= 0 || *duty > 1 {
		return fmt.Errorf("duty must be in (0, 1], got %v", *duty)
	}
	if *designPath != "" && *duty != 1 {
		return fmt.Errorf("-duty shapes the generated design; with -design, add a duty column to the design CSV instead")
	}

	var design *doe.Design
	if *designPath != "" {
		f, err := os.Open(*designPath)
		if err != nil {
			return err
		}
		design, err = doe.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		// The default design comes from the same declarative-spec path a
		// suite file uses (the canonical Figure 10 ladder, crossed with the
		// duty level when one is requested); only the design is taken — the
		// engine config keeps the flag-only knobs (-unpinned, ad-hoc
		// -table ladders) a spec deliberately cannot express.
		_, design, err = cpubench.FromSpec(cpubench.Spec{Duty: *duty, Reps: *reps}, *seed)
		if err != nil {
			return err
		}
	}

	cfg := cpubench.Config{
		Table:             tab,
		Seed:              *seed,
		Governor:          gov,
		SamplingPeriodSec: *period,
		Sched:             ossim.Config{Policy: pol, Unpinned: *unpinned},
		GapSec:            *gap,
	}
	// The campaign runs first and the outputs open only after it succeeds,
	// so a failed invocation never touches an existing output file. A
	// stateful run keeps one engine's history; any other run is
	// trial-indexed and may shard.
	var res *core.Results
	if *workers <= 1 && !*indexed {
		var eng *cpubench.Engine
		if eng, err = cpubench.NewEngine(cfg); err != nil {
			return err
		}
		res, err = runner.Sequential(context.Background(), design, eng)
	} else {
		res, err = runner.Run(context.Background(), design, cpubench.Factory(cfg), runner.Config{Workers: max(*workers, 1)})
	}
	if err != nil {
		return err
	}
	if err := runner.WriteFiles(res, stdout, *outPath, *jsonlPath); err != nil {
		return err
	}
	if *envPath != "" {
		f, err := os.Create(*envPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Env.WriteJSON(f); err != nil {
			return err
		}
	}
	return nil
}
