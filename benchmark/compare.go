package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"opaquebench/internal/stats"
)

// Verdicts of compare, one per (metric, workload).
const (
	verdictOK           = "ok"
	verdictRegressed    = "regressed"
	verdictImproved     = "improved"
	verdictUnresolved   = "unresolved"
	verdictIncomparable = "incomparable"
)

// side is one side's runs of a metric on a workload.
type side struct {
	Median, Q1, Q3 float64
	N              int
}

func newSide(values []float64) side {
	if len(values) == 0 {
		return side{}
	}
	q1, q3 := quartiles(values)
	return side{Median: stats.Median(values), Q1: q1, Q3: q3, N: len(values)}
}

// spread is the side's interquartile distance as a share of its median.
func (s side) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// verdictRow is compare's judgement of one metric on one workload.
type verdictRow struct {
	Metric, Workload string
	A, B             side
	// Change is B's median relative to A's, signed so that positive is
	// worse whatever the metric's direction. For failed_frac it is the
	// change of the pooled share of failed ops.
	Change  float64
	Spread  float64
	Verdict string
}

// judge compares B against A under the metric's bound. Runs from different
// host shapes are incomparable. A metric whose run-to-run spread is wider
// than its bound is unresolved, unless every run of one side beats every run
// of the other by more than the bound.
func judge(def metricDef, a, b []float64, sameShape bool) verdictRow {
	row := verdictRow{Metric: def.Name, A: newSide(a), B: newSide(b)}
	row.Spread = max(row.A.spread(), row.B.spread())
	if !sameShape || len(a) == 0 || len(b) == 0 {
		row.Verdict = verdictIncomparable
		return row
	}
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	delta := sign * (row.B.Median - row.A.Median)
	if row.A.Median != 0 {
		row.Change = delta / row.A.Median
	}
	worse := row.Change > def.Bound && delta > def.Floor
	better := row.Change < -def.Bound
	if row.Spread > def.Bound {
		row.Verdict = verdictUnresolved
		switch {
		case better && separated(b, a, sign):
			row.Verdict = verdictImproved
		case worse && separated(a, b, sign):
			row.Verdict = verdictRegressed
		}
		return row
	}
	switch {
	case worse:
		row.Verdict = verdictRegressed
	case better:
		row.Verdict = verdictImproved
	default:
		row.Verdict = verdictOK
	}
	return row
}

// judgeFailures compares the failed ops of B's runs against A's. Any
// increase is a regression, and a median would hide a few failing runs among
// many clean ones, so the verdict pools each side's counts: B regressed when
// its failed ops over attempted ops, summed over its runs, exceed A's.
func judgeFailures(a, b []*result, sameShape bool) verdictRow {
	pool := func(rs []*result) (fracs []float64, share float64) {
		failed, attempted := 0, 0
		for _, r := range rs {
			fracs = append(fracs, float64(r.Failed)/float64(max(r.Attempted, 1)))
			failed += r.Failed
			attempted += r.Attempted
		}
		return fracs, float64(failed) / float64(max(attempted, 1))
	}
	fa, pa := pool(a)
	fb, pb := pool(b)
	row := verdictRow{Metric: failedFrac.Name, A: newSide(fa), B: newSide(fb), Change: pb - pa}
	row.Spread = max(row.A.spread(), row.B.spread())
	switch {
	case !sameShape || len(a) == 0 || len(b) == 0:
		row.Verdict = verdictIncomparable
	case pb > pa:
		row.Verdict = verdictRegressed
	default:
		row.Verdict = verdictOK
	}
	return row
}

// separated reports whether every value of good is better than every value
// of bad; sign is +1 when lower is better, -1 when higher is.
func separated(good, bad []float64, sign float64) bool {
	worstGood, bestBad := sign*good[0], sign*bad[0]
	for _, g := range good {
		worstGood = max(worstGood, sign*g)
	}
	for _, b := range bad {
		bestBad = min(bestBad, sign*b)
	}
	return worstGood < bestBad
}

// compareMain implements "benchmark compare A... -- B...": every argument
// is a results file (results.json, or a workload's .result.json) or a
// directory holding results.json. It prints each side's median and
// quartiles per (metric, workload) and a verdict, and exits 1 when any
// verdict is regressed or incomparable.
func compareMain(args []string, stdout, stderr io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "usage: benchmark compare A... -- B...")
		return 2
	}
	load := func(paths []string) ([]*result, error) {
		var out []*result
		for _, p := range paths {
			if fi, err := os.Stat(p); err == nil && fi.IsDir() {
				p = filepath.Join(p, "results.json")
			}
			rep, err := readReport(p)
			if err != nil {
				return nil, err
			}
			out = append(out, rep.Workloads...)
		}
		return out, nil
	}
	a, err := load(args[:sep])
	if err == nil {
		var b []*result
		if b, err = load(args[sep+1:]); err == nil {
			rows := compareResults(a, b)
			printVerdicts(stdout, rows)
			for _, r := range rows {
				if r.Verdict == verdictRegressed || r.Verdict == verdictIncomparable {
					return 1
				}
			}
			return 0
		}
	}
	fmt.Fprintln(stderr, "benchmark compare:", err)
	return 2
}

// compareResults judges every end-to-end metric, and failed_frac, on every
// workload either side ran.
func compareResults(a, b []*result) []verdictRow {
	byWorkload := func(rs []*result) map[string][]*result {
		m := map[string][]*result{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var names []string
	for name := range wa {
		names = append(names, name)
	}
	for name := range wb {
		if _, ok := wa[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var rows []verdictRow
	for _, name := range names {
		ra, rb := wa[name], wb[name]
		all := append(append([]*result(nil), ra...), rb...)
		same := true
		for _, x := range all {
			if x.Host != all[0].Host {
				same = false
			}
		}
		for _, def := range endToEnd {
			values := func(rs []*result) []float64 {
				var out []float64
				for _, r := range rs {
					if v, ok := r.Metrics[def.Name]; ok {
						out = append(out, v.Value)
					}
				}
				return out
			}
			row := judge(def, values(ra), values(rb), same)
			row.Workload = name
			rows = append(rows, row)
		}
		row := judgeFailures(ra, rb, same)
		row.Workload = name
		rows = append(rows, row)
	}
	return rows
}

func printVerdicts(w io.Writer, rows []verdictRow) {
	fmt.Fprintf(w, "%-16s %-11s %34s %34s %8s %7s  %s\n", "metric", "workload",
		"A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "spread", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-11s %34s %34s %+7.1f%% %6.1f%%  %s\n", r.Metric, r.Workload,
			formatSide(r.A), formatSide(r.B), r.Change*100, r.Spread*100, r.Verdict)
	}
}

func formatSide(s side) string {
	if s.N == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.Median, s.Q1, s.Q3, s.N)
}
