package suite

import (
	"context"
	"fmt"
	"runtime"

	"opaquebench/internal/adapt"
	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/meta"
	"opaquebench/internal/runner"
)

// Adaptive campaigns close the plan→measure→analyze loop inside one suite
// run: the engine config's design seeds round 1, and internal/adapt derives
// each subsequent round from the records so far — extra replicates where
// bootstrap CIs are widest, refined grid levels inside detected breakpoint
// brackets.
//
// Caching is per round and purely content-addressed: a round's key is the
// ordinary campaign key over (engine, canonical config, that round's
// materialized design CSV, seed, module version). No stored schedule is
// needed — because planning is a deterministic function of the cached
// records, a warm run replays round 1, re-derives the identical round-2
// design, finds it cached too, and so on down the chain. The round index
// deliberately does not contribute to the key: records are a pure function
// of (engine, config, design, seed), so identical content means identical
// records wherever it appears.
//
// All rounds stream through one runner.RoundSink into the campaign's
// sinks: sequence numbers re-base past earlier rounds and every record
// carries a "round" extra, so the multi-round raw stream stays a single
// well-formed record stream.

// roundExec runs the adapt loop for one campaign plan: each round is
// replayed from the cache when its key is present, executed through the
// parallel runner (and stored) otherwise. rs may be nil (plan mode: no
// output sinks). beforeCold, when non-nil, runs once before the first
// cold round — the suite uses it to acquire the campaign's worker
// allotment lazily, so a fully warm campaign never consumes the budget.
// The returned verdicts and environment describe what happened per round;
// env is the first round's captured environment.
func roundExec(ctx context.Context, suiteName string, p Plan, workers int, cache *Cache, rs *runner.RoundSink, beforeCold func() error, progress func(done, total int)) (*adapt.Outcome, []RoundVerdict, *meta.Environment, error) {
	version := ModuleVersion()
	var verdicts []RoundVerdict
	var env *meta.Environment
	// prevKey chains each round to the one it was planned from: round N's
	// entry records round N-1's key as its Parent, the provenance link the
	// store's Chain query walks.
	prevKey := ""
	exec := func(round int, d *doe.Design) ([]core.RawRecord, error) {
		if rs != nil && round > rs.Round() {
			rs.NextRound()
		}
		key, err := cacheKey(p.Campaign.Engine, p.canon, d, p.Campaign.Seed, version)
		if err != nil {
			return nil, err
		}
		parent := prevKey
		if cache != nil && cache.Lookup(key) {
			r, err := cache.loadRaw(key)
			var entry *Entry
			if err == nil && r.Records == d.Size() {
				entry, err = r.entry()
			}
			if err == nil && entry != nil {
				if rs != nil {
					if err := entry.Replay(rs); err != nil {
						return nil, err
					}
				}
				if r.Round != round || r.Parent != parent {
					// The same content can enter the cache under another
					// round position (typically a static run of the seed
					// design, stored with round 0). Records are identical
					// by content-addressing, but the round index and the
					// parent link are what let the comparator reassemble
					// the chain — refresh them in place.
					r.Round = round
					r.Parent = parent
					if err := cache.storeRaw(key, r.entryHead, sectionOf(r.csv), sectionOf(r.jsonl)); err != nil {
						return nil, err
					}
				}
				if env == nil {
					env = r.Env
				}
				verdicts = append(verdicts, RoundVerdict{Round: round, Key: key, Hit: true, Records: r.Records})
				prevKey = key
				return entry.records(), nil
			}
			// A torn, stale or legacy entry must not kill the study: fall
			// through to a cold round, which overwrites it.
		}
		if beforeCold != nil {
			if err := beforeCold(); err != nil {
				return nil, err
			}
			beforeCold = nil
		}
		// Beside the campaign's own stream (re-based and round-annotated
		// by rs), the round's records go to a CSV and a JSONL sink in
		// memory: their bytes are the round's cache entry, identical to
		// what a static campaign of this design writes.
		var sec sections
		var sinks []runner.RecordSink
		if rs != nil {
			sinks = []runner.RecordSink{rs}
		}
		if cache != nil {
			sinks = append(sinks, runner.NewCSVSink(&sec.csv), runner.NewJSONLSink(&sec.jsonl))
		}
		run, err := runner.Run(ctx, d, p.Factory, runner.Config{Workers: workers, Sinks: sinks, Progress: progress})
		if err != nil {
			return nil, err
		}
		if env == nil {
			env = run.Env
		}
		if cache != nil {
			head := entryHead{Suite: suiteName, Campaign: p.Campaign.Name, Engine: p.Campaign.Engine,
				Round: round, Parent: parent, Seed: p.Campaign.Seed, Env: run.Env, Records: len(run.Records)}
			if err := cache.storeRaw(key, head, sec.csv, sec.jsonl); err != nil {
				return nil, err
			}
		}
		verdicts = append(verdicts, RoundVerdict{Round: round, Key: key, Trials: len(run.Records), Records: len(run.Records)})
		prevKey = key
		return run.Records, nil
	}
	outcome, err := adapt.Run(*p.Adaptive, p.Refiner, p.Design, exec)
	if err != nil {
		return nil, verdicts, env, err
	}
	return outcome, verdicts, env, nil
}

// runAdaptive executes one adaptive campaign inside a suite run, streaming
// every round into the campaign's sinks and filling cr with the per-round
// verdicts. beforeCold is forwarded to roundExec (lazy worker
// acquisition).
func runAdaptive(ctx context.Context, suiteName string, p Plan, workers int, cache *Cache, cr *CampaignResult, specHash, baseDir string, beforeCold func() error, progress func(done, total int), logf func(string, ...any)) error {
	out, err := openOutputs(p.Campaign, baseDir)
	if err != nil {
		return err
	}
	defer out.close()
	rs := runner.NewRoundSink(out.sinks(nil, nil)...)
	logf("suite: %s: adaptive, %d seed trials on %d workers (budget %d trials, %d rounds max)",
		p.Campaign.Name, p.Design.Size(), workers, p.Adaptive.Budget, p.Adaptive.Rounds)
	outcome, verdicts, env, err := roundExec(ctx, suiteName, p, workers, cache, rs, beforeCold, progress)
	cr.Rounds = verdicts
	for _, rv := range verdicts {
		cr.Trials += rv.Trials
		cr.Records += rv.Records
	}
	if err != nil {
		return err
	}
	cr.Stop = outcome.Stop
	cr.Hit = true
	for _, rv := range verdicts {
		if !rv.Hit {
			cr.Hit = false
		}
	}
	logf("suite: %s: %s — %d rounds, %d records (%d executed), stop: %s",
		p.Campaign.Name, cr.Verdict(), len(verdicts), cr.Records, cr.Trials, outcome.Stop)
	if env == nil {
		env = meta.New()
	}
	env = env.Clone()
	env.Setf("adapt/rounds", "%d", len(outcome.Rounds))
	env.Set("adapt/stop", outcome.Stop)
	env.Setf("adapt/trials", "%d", outcome.TotalTrials)
	env.Setf("adapt/budget", "%d", outcome.Config.Budget)
	env.Set("adapt/factor", outcome.Config.Factor)
	return writeCampaignEnv(p, env, cr.Verdict(), specHash, baseDir)
}

// CampaignSchedule is one campaign's resolved round-by-round schedule, as
// computed by PlanSchedule.
type CampaignSchedule struct {
	// Name and Engine identify the campaign.
	Name   string
	Engine string
	// Adaptive reports whether the campaign carries an adaptive stanza.
	Adaptive bool
	// Key is the campaign's (seed round's) cache key.
	Key string
	// Hit is the seed round's (static: the campaign's) cache verdict.
	Hit bool
	// Trials is the total number of trials the schedule measures.
	Trials int
	// Rounds holds the per-round outcomes (adaptive campaigns only).
	Rounds []RoundVerdict
	// Outcome is the full planner outcome (adaptive campaigns only).
	Outcome *adapt.Outcome
}

// PlanSchedule materializes the suite's round-by-round schedule without
// touching any output sink. Static campaigns only report their design size
// and cache verdict. Adaptive campaigns must execute to plan — each round's
// design depends on the previous rounds' records — so their rounds are
// replayed from the cache when present and executed (and stored) when not:
// planning a cold adaptive suite warms its cache, and re-planning a warm
// one executes nothing.
func PlanSchedule(ctx context.Context, spec *Spec, opts Options) ([]CampaignSchedule, error) {
	plans, err := BuildPlans(spec)
	if err != nil {
		return nil, err
	}
	cache := opts.Cache
	budget := opts.Workers
	if budget < 1 {
		budget = spec.Workers
	}
	if budget < 1 {
		budget = runtime.GOMAXPROCS(0)
	}
	out := make([]CampaignSchedule, 0, len(plans))
	for _, p := range plans {
		cs := CampaignSchedule{
			Name: p.Campaign.Name, Engine: p.Campaign.Engine,
			Key: p.Key, Hit: cache != nil && cache.Lookup(p.Key),
		}
		if p.Adaptive == nil {
			cs.Trials = p.Design.Size()
			out = append(out, cs)
			continue
		}
		cs.Adaptive = true
		workers := p.Campaign.Workers
		if workers < 1 {
			workers = 1
		}
		if workers > budget {
			workers = budget
		}
		outcome, verdicts, _, err := roundExec(ctx, spec.Name, p, workers, cache, nil, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("suite: campaign %q: %w", p.Campaign.Name, err)
		}
		cs.Rounds = verdicts
		cs.Outcome = outcome
		cs.Trials = outcome.TotalTrials
		out = append(out, cs)
	}
	return out, nil
}
