package doe

import (
	"fmt"

	"opaquebench/internal/xrand"
)

// Trial is one planned measurement: a factor combination, its replicate
// number, and its position in the randomized execution order.
type Trial struct {
	// Seq is the execution order index (0-based) after randomization.
	Seq int
	// Rep is the replicate number (0-based) of this factor combination.
	Rep int
	// Point is the factor combination to measure. It is read-only: a
	// design gives every replicate of a combination the same map, and the
	// records engines return carry it on, so writing into it would change
	// other trials. Clone it to derive a new point.
	Point Point
	// Origin records why the trial is in the design: "" for trials of the
	// original (seed) design, OriginReplicate for variance-targeted extra
	// replicates, OriginZoom for refined grid points inserted around a
	// detected breakpoint. Provenance travels with the design artifact so
	// an adaptive campaign's schedule stays auditable after the fact.
	Origin string
}

// Trial provenance values (see internal/adapt).
const (
	// OriginReplicate marks extra replicates allocated to a design point
	// whose bootstrap CI was too wide.
	OriginReplicate = "replicate"
	// OriginZoom marks refined grid points inserted inside a breakpoint
	// bracket.
	OriginZoom = "zoom"
)

// Design is a fully materialized experimental design: an ordered list of
// trials. The order IS the experiment schedule; the engine must execute
// trials in slice order.
type Design struct {
	Factors []Factor
	Trials  []Trial
	// Seed is the randomization seed, recorded for reproducibility.
	Seed uint64
	// Randomized records whether the trial order was shuffled.
	Randomized bool
}

// Options configures design generation.
type Options struct {
	// Replicates is the number of measurements per factor combination
	// (the paper uses 42). Values < 1 are treated as 1.
	Replicates int
	// Seed drives all randomization.
	Seed uint64
	// Randomize shuffles the execution order of all trials. Disabling it
	// reproduces the "commonly used sequential order" whose dangers
	// Section IV.3 demonstrates.
	Randomize bool
	// GroupReplicates, when the order is not randomized, schedules all
	// replicates of one factor combination back-to-back (the classic
	// opaque-benchmark inner repetition loop of Figure 2) instead of
	// sweeping all combinations once per replicate round.
	GroupReplicates bool
	// Origin, when non-empty, stamps every generated trial with the given
	// provenance (OriginReplicate, OriginZoom).
	Origin string
}

// FullFactorial crosses all factor levels, replicates each combination, and
// (by default) randomizes the execution order.
func FullFactorial(factors []Factor, opt Options) (*Design, error) {
	if len(factors) == 0 {
		return nil, fmt.Errorf("doe: no factors")
	}
	for _, f := range factors {
		if len(f.Levels) == 0 {
			return nil, fmt.Errorf("doe: factor %q has no levels", f.Name)
		}
		if f.Name == "" {
			return nil, fmt.Errorf("doe: unnamed factor")
		}
	}
	reps := opt.Replicates
	if reps < 1 {
		reps = 1
	}

	var points []Point
	current := make(Point)
	var cross func(i int)
	cross = func(i int) {
		if i == len(factors) {
			points = append(points, current.Clone())
			return
		}
		for _, l := range factors[i].Levels {
			current[factors[i].Name] = l
			cross(i + 1)
		}
	}
	cross(0)

	// The replicates of a combination share its one point map (Trial.Point
	// is read-only).
	d := &Design{Factors: factors, Seed: opt.Seed, Randomized: opt.Randomize,
		Trials: make([]Trial, 0, reps*len(points))}
	if opt.GroupReplicates && !opt.Randomize {
		for _, p := range points {
			for rep := 0; rep < reps; rep++ {
				d.Trials = append(d.Trials, Trial{Rep: rep, Point: p, Origin: opt.Origin})
			}
		}
	} else {
		for rep := 0; rep < reps; rep++ {
			for _, p := range points {
				d.Trials = append(d.Trials, Trial{Rep: rep, Point: p, Origin: opt.Origin})
			}
		}
	}
	if opt.Randomize {
		r := xrand.NewDerived(opt.Seed, "doe/order")
		xrand.Shuffle(r, len(d.Trials), func(i, j int) {
			d.Trials[i], d.Trials[j] = d.Trials[j], d.Trials[i]
		})
	}
	for i := range d.Trials {
		d.Trials[i].Seq = i
	}
	return d, nil
}

// Size returns the number of planned trials.
func (d *Design) Size() int { return len(d.Trials) }

// Combinations returns the number of distinct factor combinations.
func (d *Design) Combinations() int {
	n := 1
	for _, f := range d.Factors {
		n *= len(f.Levels)
	}
	return n
}

// RandomSizes generates n log-uniformly distributed integer sizes in [a, b]
// following the paper's Equation (1): 10^X, X ~ Unif(log10 a, log10 b).
// It is used instead of fixed power-of-two grids to avoid the size bias of
// Section III.2.
func RandomSizes(seed uint64, n, a, b int) []int {
	r := xrand.NewDerived(seed, "doe/sizes")
	out := make([]int, n)
	for i := range out {
		out[i] = xrand.LogUniformInt(r, a, b)
	}
	return out
}

// PowersOfTwo returns the conventional biased size grid {a, 2a, 4a, ... <= b}
// used by the opaque benchmarks of Figure 2.
func PowersOfTwo(a, b int) []int {
	var out []int
	if a < 1 {
		a = 1
	}
	for s := a; s <= b; s *= 2 {
		out = append(out, s)
	}
	return out
}

// SizeFactor converts a list of sizes into a Factor named name.
func SizeFactor(name string, sizes []int) Factor {
	return IntFactor(name, sizes...)
}
