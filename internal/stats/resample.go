package stats

import (
	"math"
	"sort"

	"opaquebench/internal/xrand"
)

// CI is a two-sided confidence interval.
type CI struct {
	Lo, Hi float64
	// Level is the nominal coverage, e.g. 0.95.
	Level float64
}

// Contains reports whether v lies in the interval.
func (c CI) Contains(v float64) bool { return v >= c.Lo && v <= c.Hi }

// Width returns Hi - Lo.
func (c CI) Width() float64 { return c.Hi - c.Lo }

// bootstrapDefaults normalizes the shared bootstrap knobs.
func bootstrapDefaults(level float64, reps int) (float64, int) {
	if level <= 0 || level >= 1 {
		level = 0.95
	}
	if reps < 10 {
		reps = 1000
	}
	return level, reps
}

// percentileCI extracts the two-sided percentile interval from a set of
// bootstrap estimates, sorting them in place once for both ends.
func percentileCI(estimates []float64, level float64) CI {
	alpha := (1 - level) / 2
	sort.Float64s(estimates)
	return CI{
		Lo:    quantileSorted(estimates, alpha),
		Hi:    quantileSorted(estimates, 1-alpha),
		Level: level,
	}
}

// medianInPlace is Median for a non-empty resample the caller owns: it
// sorts xs in place instead of a copy. Sorting the same values in the same
// order runs the same sort, so the result is bit-identical to Median(xs).
func medianInPlace(xs []float64) float64 {
	sort.Float64s(xs)
	return quantileSorted(xs, 0.5)
}

// BootstrapCI estimates a percentile-bootstrap confidence interval for an
// arbitrary statistic. Keeping the raw data (stage 3 of the methodology)
// is what makes resampling possible at all — an aggregate-only report
// cannot be bootstrapped. stat is handed a scratch resample that is
// refilled before every call, so it may reorder its argument.
func BootstrapCI(xs []float64, stat func([]float64) float64, level float64, reps int, seed uint64) (CI, error) {
	if len(xs) == 0 {
		return CI{}, ErrEmpty
	}
	level, reps = bootstrapDefaults(level, reps)
	r := xrand.NewDerived(seed, "stats/bootstrap")
	resample := make([]float64, len(xs))
	estimates := make([]float64, reps)
	for b := 0; b < reps; b++ {
		for i := range resample {
			resample[i] = xs[r.IntN(len(xs))]
		}
		estimates[b] = stat(resample)
	}
	return percentileCI(estimates, level), nil
}

// ShiftCI estimates a percentile-bootstrap confidence interval for the
// location shift stat(after) - stat(before) between two independent
// samples. It is the statistical core of the differential campaign
// comparator (internal/compare): a CI that excludes zero is evidence the
// candidate run genuinely moved the metric, not just resampling noise.
//
// Degenerate samples stay degenerate: with n=1 or all-tied values on both
// sides every resample reproduces the originals, so the interval collapses
// to a point instead of going NaN.
// Like BootstrapCI's, stat is handed scratch resamples it may reorder.
func ShiftCI(before, after []float64, stat func([]float64) float64, level float64, reps int, seed uint64) (CI, error) {
	if len(before) == 0 || len(after) == 0 {
		return CI{}, ErrEmpty
	}
	level, reps = bootstrapDefaults(level, reps)
	r := xrand.NewDerived(seed, "stats/bootstrap-shift")
	ra := make([]float64, len(before))
	rb := make([]float64, len(after))
	estimates := make([]float64, reps)
	for b := 0; b < reps; b++ {
		for i := range ra {
			ra[i] = before[r.IntN(len(before))]
		}
		for i := range rb {
			rb[i] = after[r.IntN(len(after))]
		}
		estimates[b] = stat(rb) - stat(ra)
	}
	return percentileCI(estimates, level), nil
}

// MedianShiftCI is ShiftCI for the shift of medians — robust against the
// multimodal and heavy-tailed value distributions benchmark campaigns
// produce, where a mean shift can be driven entirely by a few outliers.
func MedianShiftCI(before, after []float64, level float64, reps int, seed uint64) (CI, error) {
	return ShiftCI(before, after, medianInPlace, level, reps, seed)
}

// MeanCI is BootstrapCI for the mean.
func MeanCI(xs []float64, level float64, reps int, seed uint64) (CI, error) {
	return BootstrapCI(xs, Mean, level, reps, seed)
}

// MedianCI is BootstrapCI for the median. Each resample's median is taken
// in place, on the resample buffer BootstrapCI owns, rather than on a
// sorted copy.
func MedianCI(xs []float64, level float64, reps int, seed uint64) (CI, error) {
	return BootstrapCI(xs, medianInPlace, level, reps, seed)
}

// Autocorr returns the lag-k sample autocorrelation of xs in its given
// (execution) order. Under a properly randomized design the values should
// be exchangeable; significant positive lag-1 autocorrelation flags a
// temporal effect — a perturbation window, a governor ramp, an intruding
// process — exactly the anomalies Sections III.1 and IV.3 document.
func Autocorr(xs []float64, lag int) float64 {
	n := len(xs)
	if lag < 1 || n <= lag+1 {
		return math.NaN()
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
		if i+lag < n {
			num += d * (xs[i+lag] - m)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// TemporalAnomaly reports whether the sequence-ordered values show
// significant lag-1 autocorrelation, using the conventional 2/sqrt(n)
// threshold for a white-noise null.
func TemporalAnomaly(xs []float64) bool {
	r := Autocorr(xs, 1)
	if math.IsNaN(r) {
		return false
	}
	return r > 2/math.Sqrt(float64(len(xs)))
}
