// Command suite runs a declarative campaign suite: a JSON spec naming many
// campaigns across the registered benchmark engines (internal/engine),
// executed through the parallel runner under a global worker budget, with a
// content-addressed result cache — a campaign whose (engine, config,
// design, seed, module version) key is already cached is skipped and its
// records are replayed into the sinks byte-identically to a cold run.
//
// The cache is one embedded store file (internal/store; -cache-store,
// default .suite-cache.store), written by one process at a time.
//
// Subcommands: run (execute, honoring the cache; -baseline additionally
// gates the run against a prior run's store through the differential
// comparator, failing on statistically backed regressions), list (print the
// resolved plan), hash (print the canonical spec hash and per-campaign
// cache keys), store (manage an embedded single-file result store: import
// legacy cache directories, query entries by metadata, pin named runs,
// garbage-collect, compact and verify).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"opaquebench/internal/compare"
	"opaquebench/internal/suite"
)

const topUsage = `Usage: suite <command> [flags] spec.json

Commands:
  run    execute the suite (cache-aware; -dry-run to preview verdicts,
         -baseline to gate against a prior run's cache)
  plan   print the round-by-round schedule, adaptive campaigns included,
         without touching any output file (cold adaptive rounds execute
         into the cache; a warm cache replays everything)
  list   print the resolved campaign plan without executing anything
  hash   print the canonical spec hash and per-campaign cache keys
  store  manage an embedded result store (import, ls, pin, unpin, runs,
         chain, gc, compact, verify)

Run "suite <command> -h" for the command's flags.
`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "suite:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("missing command\n\n%s", topUsage)
	}
	switch args[0] {
	case "run":
		return runRun(args[1:], stdout)
	case "plan":
		return runPlan(args[1:], stdout)
	case "list":
		return runList(args[1:], stdout)
	case "hash":
		return runHash(args[1:], stdout)
	case "store":
		return runStore(args[1:], stdout)
	case "help", "-h", "-help", "--help":
		fmt.Fprint(stdout, topUsage)
		return nil
	}
	return fmt.Errorf("unknown command %q\n\n%s", args[0], topUsage)
}

// subUsage installs the conventional usage text on a subcommand's flag
// set: every subcommand takes its flags followed by exactly one spec file.
func subUsage(fs *flag.FlagSet, name, summary string) {
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: suite %s [flags] spec.json\n\n%s\n", name, summary)
		var hasFlags bool
		fs.VisitAll(func(*flag.Flag) { hasFlags = true })
		if hasFlags {
			fmt.Fprint(fs.Output(), "\nFlags:\n")
			fs.PrintDefaults()
		}
	}
}

// loadSpec parses the positional spec argument of a subcommand.
func loadSpec(fs *flag.FlagSet) (*suite.Spec, string, error) {
	if fs.NArg() != 1 {
		return nil, "", fmt.Errorf("want exactly one spec file argument, got %d", fs.NArg())
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	spec, err := suite.Parse(data, path)
	return spec, path, err
}

func runRun(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("suite run", flag.ContinueOnError)
	cacheStore := fs.String("cache-store", ".suite-cache.store", "content-addressed result cache: a single-file store (empty disables the cache)")
	pinRun := fs.String("run", "", "pin this run's cache entries in the store under the given run name (needs -cache-store); pinned runs survive gc and feed compare -trend")
	subUsage(fs, "run", "Execute every campaign of the suite, replaying cached ones byte-identically.")
	workers := fs.Int("workers", 0, "global worker budget across concurrent campaigns (0 = the spec's, else GOMAXPROCS)")
	dryRun := fs.Bool("dry-run", false, "print the plan with a hit/miss verdict per campaign; execute nothing, touch no output file")
	baseDir := fs.String("C", "", "directory campaign output paths resolve against (default: the spec file's directory)")
	envPath := fs.String("env", "", "suite-level environment JSON output: spec hash and per-campaign cache verdicts (optional)")
	baseline := fs.String("baseline", "", "prior run's result store file to compare this run against; any statistically backed regression fails the run")
	verdicts := fs.String("verdicts", "", "write the comparator's machine-readable verdict JSON to this file (needs -baseline)")
	quiet := fs.Bool("q", false, "suppress per-campaign progress lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baseline != "" {
		if *cacheStore == "" {
			return fmt.Errorf("-baseline needs -cache-store: the comparison reads this run's records from its cache")
		}
		if *dryRun {
			return fmt.Errorf("-baseline and -dry-run are incompatible: a dry run produces no records to compare")
		}
	}
	if *verdicts != "" && *baseline == "" {
		return fmt.Errorf("-verdicts needs -baseline")
	}
	if *pinRun != "" && (*cacheStore == "" || *dryRun) {
		return fmt.Errorf("-run needs -cache-store and a real (non-dry) run: pins live in the store")
	}
	spec, specPath, err := loadSpec(fs)
	if err != nil {
		return err
	}
	base := *baseDir
	if base == "" {
		base = filepath.Dir(specPath)
	}
	opts := suite.Options{
		Workers: *workers,
		BaseDir: base,
		DryRun:  *dryRun,
	}
	if *cacheStore != "" {
		// A dry run must create nothing: a store that does not exist yet is
		// simply all-miss, an existing one is opened read-only.
		if !*dryRun {
			opts.Cache, err = suite.OpenCacheStore(*cacheStore)
		} else if _, statErr := os.Stat(*cacheStore); statErr == nil {
			opts.Cache, err = suite.ReadCacheStore(*cacheStore)
		}
		if err != nil {
			return err
		}
		if opts.Cache != nil {
			defer opts.Cache.Close()
		}
	}
	if !*quiet && !*dryRun {
		opts.Log = os.Stderr
	}
	res, runErr := suite.Run(context.Background(), spec, opts)
	if res == nil {
		return runErr
	}
	printResult(stdout, spec, res, *dryRun)
	if *pinRun != "" && runErr == nil {
		if err := pinResult(opts.Cache, *pinRun, res); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "pinned run %q (%d campaigns)\n", *pinRun, len(res.Campaigns))
	}
	var gateErr error
	if *baseline != "" && runErr == nil {
		gateErr = compareRun(stdout, res, *baseline, opts.Cache, *verdicts)
	}
	if *envPath != "" {
		f, err := os.Create(*envPath)
		if err != nil {
			return err
		}
		if err := res.Env.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if runErr != nil {
		return runErr
	}
	return gateErr
}

// pinResult pins every cache key the finished run produced (adaptive
// rounds included) under the run name, making the run a named, GC-proof
// point in the store's history.
func pinResult(cache *suite.Cache, run string, res *suite.Result) error {
	st := cache.Backing()
	var keys []string
	for _, cr := range res.Campaigns {
		if len(cr.Rounds) > 0 {
			for _, rv := range cr.Rounds {
				keys = append(keys, rv.Key)
			}
			continue
		}
		keys = append(keys, cr.Key)
	}
	return st.Pin(run, keys...)
}

// compareRun gates the finished run against a baseline store: this run's
// records are loaded back from its own (already open) cache by key, the
// baseline's by a read-only scan of its store file, and the comparator's
// verdicts are printed, stamped into the run's environment metadata, and
// optionally written as a verdict file. A regressed or incomparable
// campaign is the returned error.
func compareRun(stdout io.Writer, res *suite.Result, baselinePath string, cache *suite.Cache, verdictsPath string) error {
	baseline, err := compare.LoadStore(baselinePath)
	if err != nil {
		return err
	}
	candidate := make(map[string][]compare.Sample, len(res.Campaigns))
	for _, cr := range res.Campaigns {
		// An adaptive campaign is cached one entry per round; reassemble
		// the chain into the single record stream its sinks saw.
		keys := []string{cr.Key}
		if len(cr.Rounds) > 0 {
			keys = keys[:0]
			for _, rv := range cr.Rounds {
				keys = append(keys, rv.Key)
			}
		}
		entries := make([]*suite.Entry, len(keys))
		for i, key := range keys {
			entry, err := cache.Load(key)
			if err != nil {
				return fmt.Errorf("load this run's campaign %q back from the cache: %w", cr.Name, err)
			}
			entries[i] = entry
		}
		s, err := compare.SampleFromRounds(keys, entries)
		if err != nil {
			return err
		}
		candidate[s.Campaign] = append(candidate[s.Campaign], s)
	}
	cmp := compare.Compare(baseline, candidate, compare.Gate{})
	cmp.Stamp(res.Env)
	fmt.Fprintf(stdout, "baseline comparison (%s):\n", baselinePath)
	cmp.WriteText(stdout)
	fmt.Fprintln(stdout, cmp.Summary())
	if verdictsPath != "" {
		if err := cmp.WriteJSONFile(verdictsPath); err != nil {
			return err
		}
	}
	if !cmp.Clean() {
		return fmt.Errorf("baseline comparison: %d regressed, %d incomparable", cmp.Regressed, cmp.Incomparable)
	}
	return nil
}

func printResult(w io.Writer, spec *suite.Spec, res *suite.Result, dry bool) {
	mode := "ran"
	if dry {
		mode = "planned"
	}
	fmt.Fprintf(w, "suite %q %s: %d campaigns, budget %d, spec %s\n",
		spec.Name, mode, len(res.Campaigns), res.Budget, short(res.SpecHash))
	for _, cr := range res.Campaigns {
		status := cr.Verdict()
		if cr.Err != nil {
			status = "error: " + cr.Err.Error()
		}
		fmt.Fprintf(w, "  %-20s %-9s %-5s key %s  trials %d\n",
			cr.Name, cr.Engine, status, short(cr.Key), cr.Trials)
	}
}

// runPlan prints the suite's round-by-round schedule: one line per static
// campaign, one block per adaptive campaign with the planner's per-round
// lines, the zoom containment intervals, and the stop reason. Adaptive
// rounds execute (into the cache) when cold, replay when warm; no campaign
// output file is touched either way.
func runPlan(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("suite plan", flag.ContinueOnError)
	cacheStore := fs.String("cache-store", ".suite-cache.store", "content-addressed result cache: a single-file store (empty plans without a cache)")
	workers := fs.Int("workers", 0, "global worker budget for cold adaptive rounds (0 = the spec's, else GOMAXPROCS)")
	subUsage(fs, "plan", "Print the round-by-round schedule; adaptive rounds run cache-backed, outputs untouched.")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, _, err := loadSpec(fs)
	if err != nil {
		return err
	}
	opts := suite.Options{Workers: *workers}
	if *cacheStore != "" {
		if opts.Cache, err = suite.OpenCacheStore(*cacheStore); err != nil {
			return err
		}
		defer opts.Cache.Close()
	}
	scheds, err := suite.PlanSchedule(context.Background(), spec, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "suite %q plan: %d campaigns\n", spec.Name, len(scheds))
	for _, cs := range scheds {
		if !cs.Adaptive {
			verdict := "miss"
			if cs.Hit {
				verdict = "hit"
			}
			fmt.Fprintf(stdout, "%s (%s): static, %d trials, %s key %s\n",
				cs.Name, cs.Engine, cs.Trials, verdict, short(cs.Key))
			continue
		}
		fmt.Fprintf(stdout, "%s (%s): adaptive\n", cs.Name, cs.Engine)
		for i, rr := range cs.Outcome.Rounds {
			rv := cs.Rounds[i]
			verdict := "miss"
			if rv.Hit {
				verdict = "hit"
			}
			fmt.Fprintf(stdout, "  round %d: %d trials, %s key %s\n", rr.Round, rr.Design.Size(), verdict, short(rv.Key))
			if rr.Plan != nil && len(rr.Plan.Levels) > 0 {
				for _, br := range rr.Plan.Brackets {
					var inside []int
					for _, l := range rr.Plan.Levels {
						if br.Contains(float64(l)) {
							inside = append(inside, l)
						}
					}
					if len(inside) > 0 {
						fmt.Fprintf(stdout, "    zoom within (%.6g, %.6g): %v\n", br.Lo, br.Hi, inside)
					}
				}
			}
			if rr.Plan != nil && len(rr.Plan.Replicate) > 0 {
				fmt.Fprintf(stdout, "    replicate:")
				for _, pp := range rr.Plan.Replicate {
					fmt.Fprintf(stdout, " %s+%d", pp.Key, pp.Extra)
				}
				fmt.Fprintln(stdout)
			}
		}
		fmt.Fprintf(stdout, "  stop: %s (%d/%d trials, factor %s)\n",
			cs.Outcome.Stop, cs.Outcome.TotalTrials, cs.Outcome.Config.Budget, cs.Outcome.Config.Factor)
	}
	return nil
}

func runList(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("suite list", flag.ContinueOnError)
	subUsage(fs, "list", "Print the resolved campaign plan (engines, seeds, trial counts, sinks).")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, _, err := loadSpec(fs)
	if err != nil {
		return err
	}
	plans, err := suite.BuildPlans(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "suite %q: %d campaigns\n", spec.Name, len(plans))
	for _, p := range plans {
		c := p.Campaign
		sinks := c.Out
		if c.JSONL != "" {
			if sinks != "" {
				sinks += " + "
			}
			sinks += c.JSONL
		}
		fmt.Fprintf(stdout, "  %-20s %-9s seed %-12d workers %-3d %6d trials  -> %s\n",
			c.Name, c.Engine, c.Seed, max(c.Workers, 1), p.Design.Size(), sinks)
	}
	return nil
}

func runHash(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("suite hash", flag.ContinueOnError)
	subUsage(fs, "hash", "Print the canonical spec hash and the per-campaign cache keys.")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, _, err := loadSpec(fs)
	if err != nil {
		return err
	}
	hash, err := spec.Hash()
	if err != nil {
		return err
	}
	plans, err := suite.BuildPlans(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "spec %s\n", hash)
	for _, p := range plans {
		fmt.Fprintf(stdout, "campaign %s %s\n", p.Key, p.Campaign.Name)
	}
	return nil
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}
