// Command membench runs a white-box memory campaign against one of the
// simulated Figure 5 machines: it reads (or generates) a randomized design,
// executes every trial in design order through the membench engine, and
// writes the full raw results plus the captured environment. -workers > 1
// shards the design across trial-indexed engine instances with
// byte-identical output (see internal/runner); cmd/suite orchestrates many
// such campaigns with a result cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/membench"
	"opaquebench/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "membench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("membench", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), `Usage: membench [flags]

Run a white-box memory campaign (methodology stage 2): execute a randomized
design in exactly the designed order against a simulated machine, logging
every raw measurement. Sharded runs stay byte-identical to serial ones; see
cmd/suite to orchestrate many campaigns with a result cache.

Flags:
`)
		fs.PrintDefaults()
	}
	machine := fs.String("machine", "i7", "machine: opteron, p4, i7, snowball")
	designPath := fs.String("design", "", "design CSV (from designgen); empty generates a default ladder")
	seed := fs.Uint64("seed", 1, "campaign seed")
	governor := fs.String("governor", "performance", "DVFS governor: performance, powersave, ondemand, conservative, userspace")
	targetGHz := fs.Float64("target-ghz", 0, "pinned frequency for -governor userspace (GHz)")
	alloc := fs.String("alloc", "contiguous", "allocation: contiguous, pool, arena")
	policy := fs.String("policy", "other", "scheduling policy: other, rt")
	reps := fs.Int("reps", 42, "replicates when generating the default design")
	workers := fs.Int("workers", 1, "parallel campaign workers; >1 shards the design across trial-indexed engines (requires a load-oblivious governor and contiguous allocation)")
	outPath := fs.String("o", "", "raw results CSV (default stdout)")
	jsonlPath := fs.String("jsonl", "", "raw results JSONL output (optional)")
	envPath := fs.String("env", "", "environment JSON output (optional)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The flags lower into the same declarative spec a suite file carries,
	// so the CLI and the suite orchestrator build campaigns through one
	// code path (membench.FromSpec; see internal/engine for the registry
	// the orchestration layers consume).
	cfg, design, err := membench.FromSpec(membench.Spec{
		Machine:   *machine,
		Governor:  *governor,
		TargetGHz: *targetGHz,
		Alloc:     *alloc,
		Policy:    *policy,
		Reps:      *reps,
	}, *seed)
	if err != nil {
		return err
	}
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
	}

	// The campaign runs first and the outputs open only after it succeeds,
	// so a failed invocation never touches an existing output file.
	var res *core.Results
	if *workers <= 1 {
		var eng *membench.Engine
		if eng, err = membench.NewEngine(cfg); err != nil {
			return err
		}
		res, err = runner.Sequential(context.Background(), design, eng)
	} else {
		res, err = runner.Run(context.Background(), design, membench.Factory(cfg), runner.Config{Workers: *workers})
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
