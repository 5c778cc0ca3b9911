// Command netbench runs a white-box network campaign against a simulated
// network profile: randomized log-uniform message sizes (Equation 1), the
// three Section V.A operations, raw per-measurement logging, and an optional
// temporal perturbation for pitfall studies. -fit prints the supervised
// LogGP model after the campaign, and -workers > 1 shards the design across
// trial-indexed engine instances with byte-identical output (see
// internal/runner); cmd/suite orchestrates many such campaigns with a
// result cache, and runs the collective campaigns (engine collbench).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"opaquebench/internal/core"
	"opaquebench/internal/netbench"
	"opaquebench/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "netbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("netbench", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), `Usage: netbench [flags]

Run a white-box network campaign (methodology stage 2): execute a randomized
design in exactly the designed order against a simulated network profile,
logging every raw measurement. Sharded runs stay byte-identical to serial
ones; see cmd/suite to orchestrate many campaigns with a result cache.

Flags:
`)
		fs.PrintDefaults()
	}
	profile := fs.String("profile", "taurus", "network profile: taurus, myrinet-openmpi, myrinet-gm")
	seed := fs.Uint64("seed", 1, "campaign seed")
	nSizes := fs.Int("n", 200, "number of log-uniform message sizes")
	minSize := fs.Int("min", 16, "minimum message size (bytes)")
	maxSize := fs.Int("max", 2<<20, "maximum message size (bytes)")
	reps := fs.Int("reps", 4, "replicates per (size, op)")
	randomize := fs.Bool("randomize", true, "randomize execution order")
	perturbFactor := fs.Float64("perturb-factor", 0, "temporal perturbation stretch factor (0 = none)")
	perturbStart := fs.Float64("perturb-start", 0, "perturbation window start (virtual seconds)")
	perturbEnd := fs.Float64("perturb-end", 0, "perturbation window end (virtual seconds)")
	workers := fs.Int("workers", 1, "parallel campaign workers; >1 shards the design across trial-indexed engines")
	outPath := fs.String("o", "", "raw results CSV (default stdout)")
	jsonlPath := fs.String("jsonl", "", "raw results JSONL output (optional)")
	envPath := fs.String("env", "", "environment JSON output (optional)")
	fitBreaks := fs.Bool("fit", false, "after the campaign, print the supervised LogGP fit using the profile's true breakpoints")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The flags lower into the same declarative spec a suite file carries,
	// so the CLI and the suite orchestrator build campaigns through one
	// code path (netbench.FromSpec; see internal/engine for the registry
	// the orchestration layers consume). Only the -randomize=false escape
	// hatch — inexpressible in a spec, since suites never give up
	// randomization — regenerates the design.
	cfg, design, err := netbench.FromSpec(netbench.Spec{
		Profile:       *profile,
		N:             *nSizes,
		Min:           *minSize,
		Max:           *maxSize,
		Reps:          *reps,
		PerturbFactor: *perturbFactor,
		PerturbStart:  *perturbStart,
		PerturbEnd:    *perturbEnd,
	}, *seed)
	if err != nil {
		return err
	}
	if !*randomize {
		design, err = netbench.Design(*seed, *nSizes, *minSize, *maxSize, *reps, nil, false)
		if err != nil {
			return err
		}
	}

	// The campaign runs first and the outputs open only after it succeeds,
	// so a failed invocation never touches an existing output file.
	var res *core.Results
	if *workers <= 1 {
		var eng *netbench.Engine
		if eng, err = netbench.NewEngine(cfg); err != nil {
			return err
		}
		res, err = runner.Sequential(context.Background(), design, eng)
	} else {
		res, err = runner.Run(context.Background(), design, netbench.Factory(cfg), runner.Config{Workers: *workers})
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
	if *fitBreaks {
		model, err := netbench.FitLogGP(res, cfg.Profile.Breakpoints())
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "LogGP model (breakpoints %v):\n%s", cfg.Profile.Breakpoints(), model.String())
	}
	return nil
}
