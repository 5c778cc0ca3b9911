package doe

import (
	"fmt"

	"opaquebench/internal/xrand"
)

// This file implements two-level screening designs from the paper's Design
// of Experiments reference (Montgomery): when the factor list of Figure 13
// is long, a Plackett-Burman design estimates every main effect with a
// fraction of the full factorial's runs, telling the analyst which factors
// deserve the full treatment.

// pbColumns holds the classic Plackett-Burman generator rows (first row of
// the cyclic construction) for run counts 8, 12, 16, 20 and 24.
var pbColumns = map[int][]int{
	8:  {1, 1, 1, -1, 1, -1, -1},
	12: {1, 1, -1, 1, 1, 1, -1, -1, -1, 1, -1},
	16: {1, 1, 1, 1, -1, 1, -1, 1, 1, -1, -1, 1, -1, -1, -1},
	20: {1, 1, -1, -1, 1, 1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, 1, 1, -1},
	24: {1, 1, 1, 1, 1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, -1, -1, -1},
}

// PlackettBurman builds a two-level screening design for the given factors.
// Every factor must have exactly two levels (low = Levels[0], high =
// Levels[1]). The smallest standard run count >= len(factors)+1 is chosen;
// the resulting design estimates all main effects in that many runs per
// replicate instead of 2^k.
func PlackettBurman(factors []Factor, opt Options) (*Design, error) {
	if len(factors) == 0 {
		return nil, fmt.Errorf("doe: no factors")
	}
	for _, f := range factors {
		if f.Name == "" {
			return nil, fmt.Errorf("doe: unnamed factor")
		}
		if len(f.Levels) != 2 {
			return nil, fmt.Errorf("doe: Plackett-Burman factor %q needs exactly 2 levels, has %d", f.Name, len(f.Levels))
		}
	}
	runs := 0
	for _, n := range []int{8, 12, 16, 20, 24} {
		if n >= len(factors)+1 {
			runs = n
			break
		}
	}
	if runs == 0 {
		return nil, fmt.Errorf("doe: Plackett-Burman supports up to 23 factors, got %d", len(factors))
	}
	gen := pbColumns[runs]

	// Cyclic construction: row i, column j = gen[(j-i) mod (runs-1)];
	// the final row is all -1.
	matrix := make([][]int, runs)
	for i := 0; i < runs-1; i++ {
		row := make([]int, runs-1)
		for j := 0; j < runs-1; j++ {
			row[j] = gen[((j-i)%(runs-1)+(runs-1))%(runs-1)]
		}
		matrix[i] = row
	}
	last := make([]int, runs-1)
	for j := range last {
		last[j] = -1
	}
	matrix[runs-1] = last

	reps := opt.Replicates
	if reps < 1 {
		reps = 1
	}
	points := make([]Point, len(matrix))
	for ri, row := range matrix {
		p := make(Point, len(factors))
		for fi, f := range factors {
			level := f.Levels[0]
			if row[fi] == 1 {
				level = f.Levels[1]
			}
			p[f.Name] = level
		}
		points[ri] = p
	}
	d := &Design{Factors: factors, Seed: opt.Seed, Randomized: opt.Randomize}
	for rep := 0; rep < reps; rep++ {
		for _, p := range points {
			d.Trials = append(d.Trials, Trial{Rep: rep, Point: p})
		}
	}
	if opt.Randomize {
		r := xrand.NewDerived(opt.Seed, "doe/pb-order")
		xrand.Shuffle(r, len(d.Trials), func(i, j int) {
			d.Trials[i], d.Trials[j] = d.Trials[j], d.Trials[i]
		})
	}
	for i := range d.Trials {
		d.Trials[i].Seq = i
	}
	return d, nil
}

// Orthogonal reports whether every pair of two-level factors is balanced
// and orthogonal in the design: each (level_i, level_j) combination appears
// equally often. Screening designs must satisfy this for unconfounded main
// effects; the method lets tests (and cautious analysts) verify it.
func (d *Design) Orthogonal(f1, f2 string) bool {
	counts := map[[2]string]int{}
	for _, t := range d.Trials {
		counts[[2]string{t.Point.Get(f1), t.Point.Get(f2)}]++
	}
	if len(counts) != 4 {
		return false
	}
	want := -1
	for _, c := range counts {
		if want == -1 {
			want = c
		}
		if c != want {
			return false
		}
	}
	return true
}
