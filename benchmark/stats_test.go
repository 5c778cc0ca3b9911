package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The reported tail percentile must have at least minBeyond samples past
// it, and says how many it has, so a run too short for its p90 shows.
func TestPercentileSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		wantValue  float64
		wantBeyond int
		trusted    bool
	}{
		{n: 120, wantValue: 108, wantBeyond: 12, trusted: true},
		{n: 100, wantValue: 90, wantBeyond: 10, trusted: true},
		{n: 99, wantValue: 90, wantBeyond: 9, trusted: false},
		{n: 3, wantValue: 3, wantBeyond: 0, trusted: false},
		{n: 1, wantValue: 1, wantBeyond: 0, trusted: false},
	} {
		v, beyond := percentile(seq(tc.n), 0.9)
		if v != tc.wantValue || beyond != tc.wantBeyond {
			t.Errorf("n=%d: p90 = %v with %d beyond, want %v with %d", tc.n, v, beyond, tc.wantValue, tc.wantBeyond)
		}
		if got := beyond >= minBeyond; got != tc.trusted {
			t.Errorf("n=%d: trusted = %v, want %v", tc.n, got, tc.trusted)
		}
	}
	if v, beyond := percentile(nil, 0.9); v != 0 || beyond != 0 {
		t.Errorf("empty: got %v, %d", v, beyond)
	}
	// The minimum op count of a run is enough for a trusted p90.
	if _, beyond := percentile(seq(defaultMinOps), 0.9); beyond < minBeyond {
		t.Errorf("defaultMinOps=%d leaves only %d samples beyond p90", defaultMinOps, beyond)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spread is defined by.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},                   // quantiles(range(1, 11)) = [2.75, 5.5, 8.25]
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},     // [1.25, 2.5, 3.75]
		{[]float64{1, 2}, 0.75, 2.25},           // [0.75, 1.5, 2.25]: extrapolated past the data
		{[]float64{10, 20, 30, 40, 50}, 15, 45}, // [15.0, 30.0, 45.0]
		{[]float64{7}, 7, 7},                    // fewer than two values: the value itself
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}
