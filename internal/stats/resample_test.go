package stats

import (
	"math"
	"math/rand/v2"
	"testing"

	"opaquebench/internal/xrand"
)

func TestBootstrapCICoversTruth(t *testing.T) {
	r := rand.New(rand.NewPCG(51, 51))
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = 10 + r.NormFloat64()
	}
	ci, err := MeanCI(xs, 0.95, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Contains(Mean(xs)) {
		t.Fatalf("CI %+v does not contain the sample mean %v", ci, Mean(xs))
	}
	if !ci.Contains(10) && math.Abs(ci.Lo-10) > 0.3 {
		t.Fatalf("CI %+v far from truth 10", ci)
	}
	if ci.Width() <= 0 || ci.Width() > 1 {
		t.Fatalf("width = %v", ci.Width())
	}
}

func TestBootstrapCIShrinksWithN(t *testing.T) {
	r := rand.New(rand.NewPCG(52, 52))
	gen := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		return xs
	}
	small, err := MeanCI(gen(30), 0.95, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	large, err := MeanCI(gen(3000), 0.95, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if large.Width() >= small.Width() {
		t.Fatalf("CI did not shrink: %v -> %v", small.Width(), large.Width())
	}
}

func TestBootstrapCIEmpty(t *testing.T) {
	if _, err := MeanCI(nil, 0.95, 100, 1); err != ErrEmpty {
		t.Fatalf("err = %v", err)
	}
}

func TestMedianCIDeterministic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	a, err := MedianCI(xs, 0.9, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MedianCI(xs, 0.9, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed gave %+v vs %+v", a, b)
	}
}

func TestBootstrapDefaults(t *testing.T) {
	xs := []float64{1, 2, 3}
	ci, err := BootstrapCI(xs, Mean, -1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Level != 0.95 {
		t.Fatalf("level = %v", ci.Level)
	}
}

// TestBootstrapCIDegenerateSamples pins the edge cases the differential
// comparator leans on: single-observation, all-tied and constant-series
// campaigns must bootstrap to a *degenerate* interval — a point, never NaN
// — because every resample of such a sample reproduces it exactly.
func TestBootstrapCIDegenerateSamples(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		stat func([]float64) float64
		at   float64 // the point the CI must collapse to
	}{
		{"n=1 mean", []float64{42.5}, Mean, 42.5},
		{"n=1 median", []float64{-7}, Median, -7},
		{"all ties mean", []float64{3, 3, 3, 3, 3}, Mean, 3},
		{"all ties median", []float64{1.25, 1.25, 1.25}, Median, 1.25},
		{"constant series median", make([]float64, 100), Median, 0},
		{"constant negative", []float64{-2, -2, -2, -2}, Mean, -2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ci, err := BootstrapCI(tc.xs, tc.stat, 0.95, 400, 9)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(ci.Lo) || math.IsNaN(ci.Hi) {
				t.Fatalf("degenerate sample bootstrapped to NaN: %+v", ci)
			}
			if ci.Lo != tc.at || ci.Hi != tc.at {
				t.Fatalf("CI = [%v, %v], want the point %v", ci.Lo, ci.Hi, tc.at)
			}
			if ci.Width() != 0 {
				t.Fatalf("width = %v, want 0", ci.Width())
			}
		})
	}
}

// TestShiftCIDegenerateSamples: the two-sample shift bootstrap inherits the
// same degeneracy guarantee — identical constant samples give exactly
// [0, 0], shifted constants give exactly [shift, shift].
func TestShiftCIDegenerateSamples(t *testing.T) {
	cases := []struct {
		name          string
		before, after []float64
		atLo, atHi    float64
	}{
		{"n=1 both, no shift", []float64{5}, []float64{5}, 0, 0},
		{"n=1 both, shifted", []float64{5}, []float64{3}, -2, -2},
		{"ties vs ties", []float64{2, 2, 2}, []float64{2.5, 2.5}, 0.5, 0.5},
		{"constant vs itself", []float64{9, 9, 9, 9}, []float64{9, 9, 9, 9}, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ci, err := MedianShiftCI(tc.before, tc.after, 0.99, 400, 9)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(ci.Lo) || math.IsNaN(ci.Hi) {
				t.Fatalf("degenerate shift bootstrapped to NaN: %+v", ci)
			}
			if ci.Lo != tc.atLo || ci.Hi != tc.atHi {
				t.Fatalf("CI = [%v, %v], want [%v, %v]", ci.Lo, ci.Hi, tc.atLo, tc.atHi)
			}
		})
	}
}

func TestShiftCIDetectsShift(t *testing.T) {
	r := rand.New(rand.NewPCG(54, 54))
	before := make([]float64, 200)
	after := make([]float64, 200)
	for i := range before {
		before[i] = 100 + r.NormFloat64()
		after[i] = 90 + r.NormFloat64() // a genuine -10 shift
	}
	ci, err := MedianShiftCI(before, after, 0.99, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Hi >= 0 {
		t.Fatalf("CI %+v does not exclude zero for a -10 shift", ci)
	}
	if !ci.Contains(-10) {
		t.Fatalf("CI %+v does not contain the true shift -10", ci)
	}
	// No-shift control: the CI must straddle zero.
	null, err := MedianShiftCI(before, before, 0.99, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !null.Contains(0) {
		t.Fatalf("self-shift CI %+v excludes zero", null)
	}
}

func TestShiftCIDeterministicAndValidated(t *testing.T) {
	before := []float64{1, 2, 3, 4, 5}
	after := []float64{2, 3, 4, 5, 6}
	a, err := MedianShiftCI(before, after, 0.95, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MedianShiftCI(before, after, 0.95, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed gave %+v vs %+v", a, b)
	}
	if _, err := ShiftCI(nil, after, Median, 0.95, 100, 1); err != ErrEmpty {
		t.Fatalf("empty before: err = %v", err)
	}
	if _, err := ShiftCI(before, nil, Median, 0.95, 100, 1); err != ErrEmpty {
		t.Fatalf("empty after: err = %v", err)
	}
}

func TestAutocorrWhiteNoise(t *testing.T) {
	r := rand.New(rand.NewPCG(53, 53))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	if got := Autocorr(xs, 1); math.Abs(got) > 0.06 {
		t.Fatalf("white noise lag-1 = %v", got)
	}
	if TemporalAnomaly(xs) {
		t.Fatal("white noise flagged as anomaly")
	}
}

func TestAutocorrBlockStructure(t *testing.T) {
	// A contiguous low block (Figure 11) has strong lag-1 autocorrelation.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 1500
		if i >= 80 && i < 130 {
			xs[i] = 300
		}
	}
	if got := Autocorr(xs, 1); got < 0.5 {
		t.Fatalf("block structure lag-1 = %v, want > 0.5", got)
	}
	if !TemporalAnomaly(xs) {
		t.Fatal("block anomaly not flagged")
	}
}

func TestAutocorrDegenerate(t *testing.T) {
	if !math.IsNaN(Autocorr([]float64{1, 2}, 5)) {
		t.Fatal("short series should be NaN")
	}
	if got := Autocorr([]float64{3, 3, 3, 3}, 1); got != 0 {
		t.Fatalf("constant series = %v", got)
	}
	if TemporalAnomaly([]float64{1}) {
		t.Fatal("singleton flagged")
	}
}

// oracleBootstrapCI is the copying bootstrap the in-place median must
// reproduce: the statistic sees each resample through Median's sorted copy,
// and each end of the interval is its own copy-and-sort Quantile.
func oracleBootstrapCI(xs []float64, stat func([]float64) float64, level float64, reps int, seed uint64) CI {
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
	alpha := (1 - level) / 2
	return CI{Lo: Quantile(estimates, alpha), Hi: Quantile(estimates, 1-alpha), Level: level}
}

// oracleShiftCI is oracleBootstrapCI's two-sample counterpart.
func oracleShiftCI(before, after []float64, stat func([]float64) float64, level float64, reps int, seed uint64) CI {
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
	alpha := (1 - level) / 2
	return CI{Lo: Quantile(estimates, alpha), Hi: Quantile(estimates, 1-alpha), Level: level}
}

// sameCI compares two intervals bit for bit, so NaN ends and signed zeros
// must match exactly too.
func sameCI(a, b CI) bool {
	return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) &&
		math.Float64bits(a.Hi) == math.Float64bits(b.Hi) && a.Level == b.Level
}

// tiedSample draws n values from a handful of levels, so most resamples are
// full of ties, with an occasional NaN, infinity or negative zero.
func tiedSample(r *rand.Rand, n int) []float64 {
	levels := []float64{1, 2, 2.5, 3, 0, math.Copysign(0, -1), math.Inf(1), math.NaN()}
	xs := make([]float64, n)
	for i := range xs {
		if r.IntN(10) == 0 {
			xs[i] = levels[4+r.IntN(4)]
		} else {
			xs[i] = levels[r.IntN(4)]
		}
	}
	return xs
}

// TestInPlaceMedianCIsMatchOracle: the in-place median bootstrap and the
// sort-once percentile interval give the copying oracle's intervals bit for
// bit, on samples with heavy ties, NaN and n=1. Adaptive schedules and
// comparator verdicts are built on these intervals.
func TestInPlaceMedianCIsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(53, 53))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.IntN(40)
		if trial%10 == 0 {
			n = 1
		}
		xs, ys := tiedSample(r, n), tiedSample(r, 1+r.IntN(40))
		level := []float64{0.9, 0.95, 0.99}[trial%3]
		reps, seed := 10+r.IntN(200), r.Uint64()

		got, err := MedianCI(xs, level, reps, seed)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleBootstrapCI(xs, Median, level, reps, seed); !sameCI(got, want) {
			t.Fatalf("MedianCI(%v) = %+v, oracle %+v", xs, got, want)
		}
		got, err = MeanCI(xs, level, reps, seed)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleBootstrapCI(xs, Mean, level, reps, seed); !sameCI(got, want) {
			t.Fatalf("MeanCI(%v) = %+v, oracle %+v", xs, got, want)
		}
		got, err = MedianShiftCI(xs, ys, level, reps, seed)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleShiftCI(xs, ys, Median, level, reps, seed); !sameCI(got, want) {
			t.Fatalf("MedianShiftCI(%v, %v) = %+v, oracle %+v", xs, ys, got, want)
		}
	}
}
