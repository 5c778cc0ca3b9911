package doe

import (
	"fmt"

	"opaquebench/internal/xrand"
)

// Design composition: adaptive campaigns (internal/adapt) grow a study
// round by round, and every refinement round is itself a Design — extra
// replicates of points the data flagged as noisy, plus refined grid points
// around detected breakpoints, merged and randomized under the round seed.
// The functions here build those compositions while preserving the
// invariants the generators guarantee: Seq is a permutation of [0, n), no
// (point, rep, origin) triple appears twice, and every trial's point covers
// exactly the design's factor set. Composed trials share the point maps of
// the plan or designs they come from (Trial.Point is read-only).

// PointReps requests extra replicates of one existing design point.
type PointReps struct {
	// Point is the factor combination to re-measure.
	Point Point
	// Extra is the number of additional replicates (must be >= 1).
	Extra int
	// BaseRep is the number of replicates already measured for the point;
	// new trials number their replicates BaseRep, BaseRep+1, ... so the
	// (point, rep) identity stays unique across the whole multi-round
	// record stream.
	BaseRep int
}

// Replicated builds a design consisting solely of extra replicates of
// existing points — the variance-targeted half of an adaptive refinement
// round. The trial order is randomized under the seed and every trial is
// stamped OriginReplicate. Factors describe the full factor space of the
// campaign; every requested point must cover exactly those factor names.
func Replicated(factors []Factor, plan []PointReps, seed uint64) (*Design, error) {
	if len(factors) == 0 {
		return nil, fmt.Errorf("doe: no factors")
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("doe: empty replication plan")
	}
	names := make(map[string]bool, len(factors))
	for _, f := range factors {
		names[f.Name] = true
	}
	d := &Design{Factors: cloneFactors(factors), Seed: seed, Randomized: true}
	for _, pr := range plan {
		if pr.Extra < 1 {
			return nil, fmt.Errorf("doe: point %q requests %d extra replicates", pr.Point.Key(), pr.Extra)
		}
		if pr.BaseRep < 0 {
			return nil, fmt.Errorf("doe: point %q has negative base replicate %d", pr.Point.Key(), pr.BaseRep)
		}
		if len(pr.Point) != len(names) {
			return nil, fmt.Errorf("doe: point %q covers %d factors, design has %d", pr.Point.Key(), len(pr.Point), len(names))
		}
		for name := range pr.Point {
			if !names[name] {
				return nil, fmt.Errorf("doe: point %q names unknown factor %q", pr.Point.Key(), name)
			}
		}
		for rep := pr.BaseRep; rep < pr.BaseRep+pr.Extra; rep++ {
			d.Trials = append(d.Trials, Trial{Rep: rep, Point: pr.Point, Origin: OriginReplicate})
		}
	}
	shuffleAndSeq(d, seed)
	return d, nil
}

// Merge composes several designs over the same factor names into one: the
// trials concatenate, per-factor level sets union (first-seen order), and
// the merged schedule is re-randomized under the seed. Trial provenance
// (Origin) and replicate numbers are preserved — only Seq is reassigned —
// so a merged refinement round keeps its audit trail. Nil designs are
// skipped; merging zero non-nil designs is an error.
func Merge(seed uint64, designs ...*Design) (*Design, error) {
	var live []*Design
	for _, d := range designs {
		if d != nil {
			live = append(live, d)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("doe: nothing to merge")
	}
	base := make(map[string]bool, len(live[0].Factors))
	for _, f := range live[0].Factors {
		base[f.Name] = true
	}
	merged := &Design{Seed: seed, Randomized: true}
	merged.Factors = cloneFactors(live[0].Factors)
	index := make(map[string]int, len(merged.Factors))
	seen := make(map[string]map[Level]bool, len(merged.Factors))
	for i, f := range merged.Factors {
		index[f.Name] = i
		set := make(map[Level]bool, len(f.Levels))
		for _, l := range f.Levels {
			set[l] = true
		}
		seen[f.Name] = set
	}
	for _, d := range live {
		if len(d.Factors) != len(merged.Factors) {
			return nil, fmt.Errorf("doe: merge: factor sets differ (%d vs %d factors)", len(d.Factors), len(merged.Factors))
		}
		for _, f := range d.Factors {
			i, ok := index[f.Name]
			if !ok {
				return nil, fmt.Errorf("doe: merge: factor %q absent from first design", f.Name)
			}
			for _, l := range f.Levels {
				if !seen[f.Name][l] {
					seen[f.Name][l] = true
					merged.Factors[i].Levels = append(merged.Factors[i].Levels, l)
				}
			}
		}
		for _, t := range d.Trials {
			merged.Trials = append(merged.Trials, Trial{Rep: t.Rep, Point: t.Point, Origin: t.Origin})
		}
	}
	shuffleAndSeq(merged, seed)
	return merged, nil
}

// shuffleAndSeq randomizes the trial order under the design-order stream of
// seed and assigns Seq — the same derivation FullFactorial uses, so a
// composed design randomizes exactly like a generated one.
func shuffleAndSeq(d *Design, seed uint64) {
	r := xrand.NewDerived(seed, "doe/order")
	xrand.Shuffle(r, len(d.Trials), func(i, j int) {
		d.Trials[i], d.Trials[j] = d.Trials[j], d.Trials[i]
	})
	for i := range d.Trials {
		d.Trials[i].Seq = i
	}
}

func cloneFactors(fs []Factor) []Factor {
	out := make([]Factor, len(fs))
	for i, f := range fs {
		out[i] = Factor{Name: f.Name, Levels: append([]Level(nil), f.Levels...)}
	}
	return out
}
