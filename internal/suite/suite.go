// Package suite is the declarative campaign-suite orchestrator: it turns a
// JSON spec naming many campaigns — engine, engine config, design
// parameters, seed, workers, output sinks — into one reproducible study run
// through the parallel runner, concurrently across campaigns under a
// global worker budget.
//
// The package adds one guarantee on top of the runner's (see
// internal/runner): a content-addressed result cache. Every campaign has a
// canonical key over (engine, canonical config, materialized design CSV,
// seed, module version); a key already present in the cache skips
// execution entirely and replays the cached records into the campaign's
// sinks byte-identically to a cold run. Re-running a suite after editing
// one campaign therefore re-executes exactly that campaign — the property
// that makes a many-campaign study cheap to iterate on. Cache replay
// inherits the runner's determinism: because trial-indexed engines make
// output a pure function of (design, seed, config), replayed bytes and
// cold-run bytes cannot differ.
//
// History-dependent configurations (load-reactive governors, pool/arena
// allocation, unpinned scheduling) are the subject of the
// pitfall experiments and cannot be trial-indexed; the engine factories
// reject them, so suites stay within the deterministic subset and such
// campaigns keep using the engine CLIs' sequential mode.
//
// Every suite run records the spec hash and the per-campaign cache
// verdicts in its environment metadata (internal/meta), so a study's
// provenance — which campaigns were replayed, from what identity — is part
// of the artifact record. cmd/suite is the command-line face.
package suite

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"opaquebench/internal/adapt"
	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/engine"
	"opaquebench/internal/meta"
	"opaquebench/internal/runner"
)

// Plan is one campaign resolved against its engine: the materialized
// design, the engine factory, and the content-addressed cache key. For
// adaptive campaigns, Design is the seed round's design, Key the seed
// round's cache key, and Adaptive/Refiner carry the normalized planner
// configuration and the engine's grid-refinement hook.
type Plan struct {
	Campaign Campaign
	Design   *doe.Design
	Factory  core.EngineFactory
	Key      string
	// Adaptive is the normalized planner configuration; nil for static
	// campaigns.
	Adaptive *adapt.Config
	// Refiner is the engine's refinement hook; nil for static campaigns.
	Refiner adapt.Refiner

	// canon is the canonical engine config, kept for per-round cache keys.
	canon []byte
}

// BuildPlans resolves every campaign of the spec: engine configs are
// decoded, designs materialized, factories probed (so a configuration the
// engine rejects — e.g. a load-reactive governor, which cannot run
// trial-indexed — fails here, before any output file is touched), and
// cache keys computed against the running module version.
func BuildPlans(spec *Spec) ([]Plan, error) {
	version := ModuleVersion()
	plans := make([]Plan, 0, len(spec.Campaigns))
	names := map[string]bool{}
	paths := map[string]string{}
	for i := range spec.Campaigns {
		c := spec.Campaigns[i]
		if err := c.validate(); err != nil {
			return nil, c.at(fmt.Errorf("suite: %w", err))
		}
		// Re-checked here (Parse also checks) so hand-constructed specs
		// cannot smuggle in colliding names or racing sink paths.
		if names[c.Name] {
			return nil, c.at(fmt.Errorf("suite: campaign %q declared twice", c.Name))
		}
		names[c.Name] = true
		if err := claimPaths(paths, &c); err != nil {
			return nil, c.at(fmt.Errorf("suite: %w", err))
		}
		def, _ := engine.Lookup(c.Engine) // validate() vouched for the name
		decoded, err := def.Decode(c.Config)
		if err != nil {
			return nil, c.at(fmt.Errorf("suite: campaign %q: %s config: %w", c.Name, c.Engine, err))
		}
		canon, err := engine.Canonical(decoded)
		if err != nil {
			return nil, c.at(fmt.Errorf("suite: campaign %q: %w", c.Name, err))
		}
		factory, design, err := def.Build(decoded, c.Seed)
		if err != nil {
			return nil, c.at(fmt.Errorf("suite: campaign %q: %w", c.Name, err))
		}
		if _, err := factory.NewEngine(); err != nil {
			return nil, c.at(fmt.Errorf("suite: campaign %q: %w", c.Name, err))
		}
		key, err := cacheKey(c.Engine, canon, design, c.Seed, version)
		if err != nil {
			return nil, c.at(fmt.Errorf("suite: campaign %q: %w", c.Name, err))
		}
		p := Plan{Campaign: c, Design: design, Factory: factory, Key: key, canon: canon}
		if c.Adaptive != nil {
			// A decoded engine spec is the engine's refinement hook.
			ref := adapt.Refiner(decoded)
			acfg, err := c.Adaptive.config(c.Seed).Normalize(ref, design)
			if err != nil {
				return nil, c.at(fmt.Errorf("suite: campaign %q: %w", c.Name, err))
			}
			p.Adaptive = &acfg
			p.Refiner = ref
		}
		plans = append(plans, p)
	}
	return plans, nil
}

// Options tunes a suite run.
type Options struct {
	// Cache is the content-addressed cache the run uses; nil disables
	// caching (every campaign runs cold, nothing is stored). The caller
	// keeps ownership (the run never closes it), which is how many
	// concurrent runs share one store.
	Cache *Cache
	// Workers overrides the spec's global worker budget when > 0. A
	// resolved budget < 1 means runtime.GOMAXPROCS(0).
	Workers int
	// BaseDir anchors the campaigns' relative output paths; empty means
	// the current directory.
	BaseDir string
	// DryRun plans and reports cache verdicts without executing trials or
	// touching any output file.
	DryRun bool
	// Log, when non-nil, receives one progress line per campaign.
	Log io.Writer
	// Budget, when non-nil, replaces the run's own worker semaphore with a
	// shared one, so many concurrent Run calls never exceed one global
	// worker budget between them. It takes precedence over Workers and the
	// spec's budget; the resolved budget is Budget.Cap().
	Budget *Budget
	// Progress, when non-nil, receives per-trial progress for every
	// executing campaign (replayed campaigns report no trial progress).
	// It is called from each campaign's collector goroutine, concurrently
	// across campaigns, so it must be safe for concurrent use and — like
	// runner.Config.Progress, whose contract it inherits — must never
	// block; bridge slow consumers through runner.ProgressChan.
	Progress func(campaign string, done, total int)
	// OnCampaign, when non-nil, is called once per campaign as its outcome
	// is final — cache verdict, trial counts and error included. Calls
	// arrive from the campaigns' own goroutines, concurrently; the hook
	// must be safe for concurrent use and should not block.
	OnCampaign func(CampaignResult)
}

// CampaignResult reports one campaign's outcome.
type CampaignResult struct {
	// Name and Engine identify the campaign.
	Name   string
	Engine string
	// Key is the content-addressed cache key (the seed round's key for
	// adaptive campaigns).
	Key string
	// Hit reports whether the campaign was replayed from the cache (every
	// round, for adaptive campaigns).
	Hit bool
	// Trials is the number of trials actually executed: the design size on
	// a cold run, 0 on a cache hit (and on a dry run).
	Trials int
	// Records is the number of records delivered to the sinks.
	Records int
	// Rounds reports the per-round outcomes of an adaptive campaign; nil
	// for static campaigns.
	Rounds []RoundVerdict
	// Stop is the adaptive stop reason; empty for static campaigns.
	Stop string
	// Err is the campaign's failure, if any.
	Err error
}

// RoundVerdict reports one adaptive round's cache outcome.
type RoundVerdict struct {
	// Round is the 1-based round index.
	Round int
	// Key is the round's content-addressed cache key.
	Key string
	// Hit reports whether the round replayed from the cache.
	Hit bool
	// Trials is the number of trials executed (0 on a hit).
	Trials int
	// Records is the number of records the round contributed.
	Records int
}

// Verdict renders the cache outcome as "hit" or "miss".
func (r CampaignResult) Verdict() string {
	if r.Hit {
		return "hit"
	}
	return "miss"
}

// Result is the outcome of a whole suite run.
type Result struct {
	// SpecHash is the canonical spec hash.
	SpecHash string
	// Budget is the resolved global worker budget.
	Budget int
	// Campaigns holds per-campaign outcomes in spec order.
	Campaigns []CampaignResult
	// Env is the suite-level environment metadata: the spec hash, the
	// budget, and every campaign's cache key and verdict.
	Env *meta.Environment
}

// Run executes the suite: every campaign whose key is cached is replayed
// byte-identically into its sinks; the rest run through the parallel
// runner, concurrently across campaigns, with at most the budget's worth
// of workers in flight suite-wide. The Result reports per-campaign
// verdicts even when some campaigns fail; the returned error joins all
// campaign failures.
func Run(ctx context.Context, spec *Spec, opts Options) (*Result, error) {
	plans, err := BuildPlans(spec)
	if err != nil {
		return nil, err
	}
	specHash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	cache := opts.Cache
	budget := opts.Budget
	if budget == nil {
		n := opts.Workers
		if n < 1 {
			n = spec.Workers
		}
		budget = NewBudget(n)
	}

	res := &Result{SpecHash: specHash, Budget: budget.Cap(), Campaigns: make([]CampaignResult, len(plans))}
	var logMu sync.Mutex
	logf := func(format string, args ...any) {
		if opts.Log == nil {
			return
		}
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(opts.Log, format+"\n", args...)
	}

	if opts.DryRun {
		for i, p := range plans {
			cr := CampaignResult{Name: p.Campaign.Name, Engine: p.Campaign.Engine, Key: p.Key,
				Hit: cache != nil && cache.Lookup(p.Key)}
			res.Campaigns[i] = cr
			if opts.OnCampaign != nil {
				opts.OnCampaign(cr)
			}
			if p.Adaptive != nil {
				// Later rounds depend on the seed round's records, so a dry
				// run can only report the seed design; "suite plan" prints
				// the full schedule.
				logf("suite: %s: %s (adaptive, %d seed trials planned; see suite plan)", cr.Name, cr.Verdict(), p.Design.Size())
			} else {
				logf("suite: %s: %s (%d trials planned)", cr.Name, cr.Verdict(), p.Design.Size())
			}
		}
		res.Env = suiteEnv(spec, res)
		return res, nil
	}

	// The budget (shared or run-local) is the global worker cap. Campaigns
	// acquire their whole worker allotment at once — see Budget for the
	// no-deadlock argument.
	acquire := func(n int) error { return budget.Acquire(ctx, n) }
	release := budget.Release

	// campErr attaches the campaign's identity to a failure; the API layer
	// unwraps the fields instead of parsing the message.
	campErr := func(p Plan, err error) error {
		return &CampaignError{Campaign: p.Campaign.Name, Engine: p.Campaign.Engine,
			Key: p.Key, SpecHash: specHash, Err: err}
	}
	// progressFor narrows the suite-level progress hook to one campaign's
	// runner callback.
	progressFor := func(name string) func(done, total int) {
		if opts.Progress == nil {
			return nil
		}
		return func(done, total int) { opts.Progress(name, done, total) }
	}

	var wg sync.WaitGroup
	for i := range plans {
		p := plans[i]
		workers := p.Campaign.Workers
		if workers < 1 {
			workers = 1
		}
		if workers > budget.Cap() {
			workers = budget.Cap()
		}
		wg.Add(1)
		go func(i int, p Plan, workers int) {
			defer wg.Done()
			cr := CampaignResult{Name: p.Campaign.Name, Engine: p.Campaign.Engine, Key: p.Key}
			defer func() {
				res.Campaigns[i] = cr
				if opts.OnCampaign != nil {
					opts.OnCampaign(cr)
				}
			}()

			if p.Adaptive != nil {
				// Workers are acquired lazily, on the first round that
				// actually executes: a fully warm campaign replays from
				// the cache without consuming the budget, matching the
				// static path's replay-before-acquire behavior.
				acquired := false
				defer func() {
					if acquired {
						release(workers)
					}
				}()
				beforeCold := func() error {
					if err := acquire(workers); err != nil {
						return err
					}
					acquired = true
					return nil
				}
				if err := runAdaptive(ctx, spec.Name, p, workers, cache, &cr, specHash, opts.BaseDir, beforeCold, progressFor(p.Campaign.Name), logf); err != nil {
					cr.Err = campErr(p, err)
				}
				return
			}

			if cache != nil && cache.Lookup(p.Key) {
				n, err := replayHit(cache, p, specHash, opts.BaseDir)
				if err == nil {
					cr.Hit = true
					cr.Records = n
					logf("suite: %s: hit — %d records replayed", cr.Name, cr.Records)
					return
				}
				// A torn, stale or legacy entry must not kill the study:
				// fall through to a cold run, which overwrites it.
				logf("suite: %s: cache entry unusable (%v), running cold", cr.Name, err)
			}

			if err := acquire(workers); err != nil {
				cr.Err = campErr(p, err)
				return
			}
			defer release(workers)
			logf("suite: %s: miss — running %d trials on %d workers", cr.Name, p.Design.Size(), workers)
			run, sec, err := execute(ctx, p, workers, specHash, opts.BaseDir, progressFor(p.Campaign.Name), cache != nil)
			if err != nil {
				cr.Err = campErr(p, err)
				return
			}
			cr.Trials = len(run.Records)
			cr.Records = len(run.Records)
			if cache != nil {
				head := entryHead{Suite: spec.Name, Campaign: p.Campaign.Name, Engine: p.Campaign.Engine,
					Seed: p.Campaign.Seed, Env: run.Env, Records: len(run.Records)}
				if err := cache.storeRaw(p.Key, head, sec.csv, sec.jsonl); err != nil {
					cr.Err = campErr(p, err)
				}
			}
		}(i, p, workers)
	}
	wg.Wait()

	var errs []error
	for _, cr := range res.Campaigns {
		if cr.Err != nil {
			errs = append(errs, cr.Err)
		}
	}
	res.Env = suiteEnv(spec, res)
	return res, errors.Join(errs...)
}

// suiteEnv builds the suite-level environment record: spec hash, budget,
// and per-campaign cache verdicts.
func suiteEnv(spec *Spec, res *Result) *meta.Environment {
	env := meta.New()
	env.Set("suite", spec.Name)
	env.Set("suite/spec_hash", res.SpecHash)
	env.Setf("suite/budget", "%d", res.Budget)
	env.Setf("suite/campaigns", "%d", len(res.Campaigns))
	for _, cr := range res.Campaigns {
		env.Set("suite/campaign/"+cr.Name+"/key", cr.Key)
		env.Set("suite/campaign/"+cr.Name+"/verdict", cr.Verdict())
		env.Setf("suite/campaign/"+cr.Name+"/trials", "%d", cr.Trials)
		if len(cr.Rounds) > 0 {
			env.Setf("suite/campaign/"+cr.Name+"/rounds", "%d", len(cr.Rounds))
			env.Set("suite/campaign/"+cr.Name+"/stop", cr.Stop)
			for _, rv := range cr.Rounds {
				prefix := fmt.Sprintf("suite/campaign/%s/round/%d/", cr.Name, rv.Round)
				env.Set(prefix+"key", rv.Key)
				verdict := "miss"
				if rv.Hit {
					verdict = "hit"
				}
				env.Set(prefix+"verdict", verdict)
				env.Setf(prefix+"trials", "%d", rv.Trials)
			}
		}
	}
	return env
}

// sections is a cold run's copy of every byte its CSV and JSONL sinks
// wrote: the body of the campaign's cache entry.
type sections struct {
	csv, jsonl section
}

// execute runs one campaign cold through the parallel runner, streaming
// into its sinks. With keep set it also returns the sections of the
// campaign's cache entry, the JSONL sink running even when the campaign
// names no JSONL file.
func execute(ctx context.Context, p Plan, workers int, specHash, baseDir string, progress func(done, total int), keep bool) (_ *core.Results, _ *sections, err error) {
	out, err := openOutputs(p.Campaign, baseDir)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if cerr := out.close(); err == nil {
			err = cerr
		}
	}()
	var sec *sections
	var csv, jsonl *section
	if keep {
		sec = &sections{}
		csv, jsonl = &sec.csv, &sec.jsonl
	}
	run, err := runner.Run(ctx, p.Design, p.Factory, runner.Config{Workers: workers, Sinks: out.sinks(csv, jsonl), Progress: progress})
	if err != nil {
		return nil, nil, err
	}
	if err := writeCampaignEnv(p, run.Env, "miss", specHash, baseDir); err != nil {
		return nil, nil, err
	}
	return run, sec, nil
}

// replayHit serves a static campaign from its cache entry: the entry's CSV
// and JSONL sections are the bytes the cold run streamed, so copying them
// into the output files reproduces the cold run's files exactly, with no
// record decoded or encoded. It reports the entry's record count. An entry
// that is not a sound format-2 payload is an error, and touches no output.
func replayHit(cache *Cache, p Plan, specHash, baseDir string) (int, error) {
	r, err := cache.loadRaw(p.Key)
	if err != nil {
		return 0, err
	}
	out, err := openOutputs(p.Campaign, baseDir)
	if err != nil {
		return 0, err
	}
	for _, w := range []struct {
		f    *os.File
		data []byte
	}{{out.csv, r.csv}, {out.jsonl, r.jsonl}} {
		if w.f == nil {
			continue
		}
		if _, err := w.f.Write(w.data); err != nil {
			out.close()
			return 0, err
		}
	}
	if err := out.close(); err != nil {
		return 0, err
	}
	env := r.Env
	if env == nil {
		env = meta.New()
	}
	return r.Records, writeCampaignEnv(p, env, "hit", specHash, baseDir)
}

// outputs holds a campaign's open CSV and JSONL files; either is nil when
// the campaign names no such path.
type outputs struct {
	csv, jsonl *os.File
}

// openOutputs opens the campaign's CSV/JSONL files (creating parent
// directories, the env file's included) through runner.OpenFiles, which
// rejects colliding paths and truncates nothing until every file is open.
func openOutputs(c Campaign, baseDir string) (*outputs, error) {
	csvPath := resolvePath(baseDir, c.Out)
	jsonlPath := resolvePath(baseDir, c.JSONL)
	for _, path := range []string{csvPath, jsonlPath, resolvePath(baseDir, c.Env)} {
		if path == "" {
			continue
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			return nil, err
		}
	}
	csv, jsonl, err := runner.OpenFiles(csvPath, jsonlPath)
	if err != nil {
		return nil, err
	}
	return &outputs{csv: csv, jsonl: jsonl}, nil
}

// sinks returns the campaign's record sinks: a CSV sink on the CSV file
// (draining to io.Discard when there is none, which keeps the record path
// uniform) and a JSONL sink on the JSONL file. A non-nil section receives a
// copy of its stream's bytes, and a JSONL section makes the JSONL sink run
// even without a file.
func (o *outputs) sinks(csv, jsonl *section) []runner.RecordSink {
	w := tee(o.csv, csv)
	if w == nil {
		w = io.Discard
	}
	sinks := []runner.RecordSink{runner.NewCSVSink(w)}
	if w := tee(o.jsonl, jsonl); w != nil {
		sinks = append(sinks, runner.NewJSONLSink(w))
	}
	return sinks
}

// tee is the writer one output stream goes to: its file, its section,
// both, or nil when neither is set.
func tee(f *os.File, buf *section) io.Writer {
	switch {
	case f != nil && buf != nil:
		return io.MultiWriter(f, buf)
	case f != nil:
		return f
	case buf != nil:
		return buf
	}
	return nil
}

// close closes the open files and reports the first failure.
func (o *outputs) close() error {
	var first error
	for _, f := range []*os.File{o.csv, o.jsonl} {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// writeCampaignEnv writes the campaign's environment JSON (when requested)
// annotated with the suite run's cache verdict. The cached original is
// cloned first so stored entries never accumulate verdicts.
func writeCampaignEnv(p Plan, env *meta.Environment, verdict, specHash, baseDir string) error {
	path := resolvePath(baseDir, p.Campaign.Env)
	if path == "" {
		return nil
	}
	env = env.Clone()
	env.Set("suite/cache", verdict)
	env.Set("suite/cache_key", p.Key)
	env.Set("suite/spec_hash", specHash)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := env.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func resolvePath(base, path string) string {
	if path == "" || base == "" || filepath.IsAbs(path) {
		return path
	}
	return filepath.Join(base, path)
}
