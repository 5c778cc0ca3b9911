package adapt

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
)

// RoundRunner executes one round's design and returns its records in
// design order. The suite orchestrator backs it with the parallel runner
// plus the per-round content-addressed cache; tests back it with a direct
// runner.Run. The 1-based round index is advisory (logging, sink
// bookkeeping) — the records must depend only on the design.
type RoundRunner func(round int, d *doe.Design) ([]core.RawRecord, error)

// RoundResult is one executed round of an adaptive campaign.
type RoundResult struct {
	// Round is the 1-based round index.
	Round int
	// Design is the design the round executed (the seed design for round
	// 1, a planner-derived refinement otherwise).
	Design *doe.Design
	// Plan is the planner output that produced Design; nil for the seed
	// round.
	Plan *RoundPlan
	// Records are the round's raw records in design order.
	Records []core.RawRecord
	// Analysis is the planner's view of all records up to and including
	// this round.
	Analysis *Analysis
}

// Outcome is a completed adaptive campaign: every round in order, the
// final analysis, and why the campaign stopped.
type Outcome struct {
	// Config is the fully defaulted configuration the campaign ran under.
	Config Config
	// Rounds holds the executed rounds in order.
	Rounds []RoundResult
	// TotalTrials is the number of trials across all rounds.
	TotalTrials int
	// Stop is the stop reason (StopMaxRounds, StopBudget, StopConverged).
	Stop string
}

// Final returns the analysis after the last round.
func (o *Outcome) Final() *Analysis {
	if len(o.Rounds) == 0 {
		return nil
	}
	return o.Rounds[len(o.Rounds)-1].Analysis
}

// Run drives a whole adaptive campaign: execute the seed design, analyze,
// plan, execute the refinement, ... until a stop rule fires. The outcome
// is a pure function of (cfg, refiner, seed design, engine behavior); with
// trial-indexed engines behind exec, the schedule and every record are
// reproducible byte for byte.
func Run(cfg Config, r Refiner, seed *doe.Design, exec RoundRunner) (*Outcome, error) {
	if r == nil || seed == nil || exec == nil {
		return nil, fmt.Errorf("adapt: run needs a refiner, a seed design and a round runner")
	}
	cfg, err := cfg.withDefaults(r, seed)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Config: cfg}
	design := seed
	var all []core.RawRecord
	var plan *RoundPlan
	for round := 1; ; round++ {
		recs, err := exec(round, design)
		if err != nil {
			return nil, fmt.Errorf("adapt: round %d: %w", round, err)
		}
		if len(recs) != design.Size() {
			return nil, fmt.Errorf("adapt: round %d returned %d records for a %d-trial design", round, len(recs), design.Size())
		}
		all = append(all, recs...)
		analysis, err := Analyze(cfg, all)
		if err != nil {
			return nil, fmt.Errorf("adapt: round %d: %w", round, err)
		}
		out.Rounds = append(out.Rounds, RoundResult{
			Round: round, Design: design, Plan: plan, Records: recs, Analysis: analysis,
		})
		out.TotalTrials += len(recs)
		next, stop, err := PlanNext(cfg, r, round, out.TotalTrials, all, analysis)
		if err != nil {
			return nil, err
		}
		if next == nil {
			out.Stop = stop
			return out, nil
		}
		plan = next
		design = next.Design
	}
}

// WriteSchedule renders the round-by-round schedule as stable text — the
// artifact the determinism tests compare byte for byte and cmd/suite plan
// prints. One line per round plus a trailer:
//
//	round 1: 30 trials (seed), worst rel CI 0.31, brackets [40960 in (16384, 65536)]
//	round 2: 54 trials (24 zoom, 30 replicate), levels [21112 27554 ...], ...
//	stop: max-rounds (84/120 trials)
func (o *Outcome) WriteSchedule(w io.Writer) error {
	for _, rr := range o.Rounds {
		if _, err := io.WriteString(w, o.roundLine(rr)+"\n"); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "stop: %s (%d/%d trials, factor %s)\n",
		o.Stop, o.TotalTrials, o.Config.Budget, o.Config.Factor)
	return err
}

// Schedule returns WriteSchedule's rendering as a string.
func (o *Outcome) Schedule() string {
	var b strings.Builder
	o.WriteSchedule(&b)
	return b.String()
}

func (o *Outcome) roundLine(rr RoundResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "round %d: %d trials", rr.Round, rr.Design.Size())
	if rr.Plan == nil {
		b.WriteString(" (seed)")
	} else {
		zoom, rep := originCounts(rr.Design)
		fmt.Fprintf(&b, " (%d zoom, %d replicate)", zoom, rep)
		if len(rr.Plan.Levels) > 0 {
			fmt.Fprintf(&b, ", levels %v", rr.Plan.Levels)
		}
		if len(rr.Plan.Replicate) > 0 {
			keys := make([]string, len(rr.Plan.Replicate))
			for i, p := range rr.Plan.Replicate {
				keys[i] = fmt.Sprintf("%s+%d", p.Key, p.Extra)
			}
			fmt.Fprintf(&b, ", replicate [%s]", strings.Join(keys, " "))
		}
	}
	if rr.Analysis != nil {
		fmt.Fprintf(&b, ", worst rel CI %.4g", rr.Analysis.WorstRelWidth)
		if len(rr.Analysis.Brackets) > 0 {
			parts := make([]string, len(rr.Analysis.Brackets))
			for i, br := range rr.Analysis.Brackets {
				parts[i] = fmt.Sprintf("%.6g in (%.6g, %.6g)", br.X, br.Lo, br.Hi)
			}
			fmt.Fprintf(&b, ", brackets [%s]", strings.Join(parts, "; "))
		}
	}
	return b.String()
}

// originCounts tallies a design's trials by provenance.
func originCounts(d *doe.Design) (zoom, replicate int) {
	for _, t := range d.Trials {
		switch t.Origin {
		case doe.OriginZoom:
			zoom++
		case doe.OriginReplicate:
			replicate++
		}
	}
	return zoom, replicate
}

// Combined merges every round's design into one design artifact — the
// whole study as a single schedule, trial provenance preserved, Seq
// numbering matching the round-scoped record stream (runner.RoundSink).
// Useful for auditing an adaptive campaign after the fact.
func (o *Outcome) Combined() (*doe.Design, error) {
	designs := make([]*doe.Design, len(o.Rounds))
	for i, rr := range o.Rounds {
		designs[i] = rr.Design
	}
	merged, err := doe.Merge(o.Config.Seed, designs...)
	if err != nil {
		return nil, err
	}
	// Merge reshuffles; the combined artifact must instead present the
	// executed order: rounds concatenated, design order within each.
	trials := make([]doe.Trial, 0, len(merged.Trials))
	seq := 0
	for _, rr := range o.Rounds {
		for _, t := range rr.Design.Trials {
			t.Seq = seq
			trials = append(trials, t)
			seq++
		}
	}
	merged.Trials = trials
	sortFactorLevels(merged)
	return merged, nil
}

// sortFactorLevels normalizes factor level order in the merged factor list
// (lexical), so Combined designs serialize deterministically regardless of
// the per-round level discovery order.
func sortFactorLevels(d *doe.Design) {
	for i := range d.Factors {
		levels := d.Factors[i].Levels
		sort.Slice(levels, func(a, b int) bool { return levels[a] < levels[b] })
	}
}
