package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25, Floor: 0.05}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		same bool
		want string
	}{
		{"same runs", lower, []float64{100, 101, 99, 100}, []float64{100, 102, 99, 101}, true, verdictOK},
		{"within bound", lower, []float64{100, 101, 99, 100}, []float64{105, 106, 104, 105}, true, verdictOK},
		{"slower", lower, []float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, true, verdictRegressed},
		{"faster", lower, []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, true, verdictImproved},
		{"throughput dropped", higher, []float64{50, 51, 49, 50}, []float64{40, 41, 39, 40}, true, verdictRegressed},
		{"throughput rose", higher, []float64{50, 51, 49, 50}, []float64{60, 61, 59, 60}, true, verdictImproved},
		{"spread wider than bound", lower, []float64{60, 140, 80, 120}, []float64{70, 150, 90, 130}, true, verdictUnresolved},
		{"wide but separated", lower, []float64{160, 240, 180, 220}, []float64{60, 100, 70, 90}, true, verdictImproved},
		{"other host shape", lower, []float64{100}, []float64{100}, false, verdictIncomparable},
		{"one side missing", lower, []float64{100}, nil, true, verdictIncomparable},
		{"small absolute setup change", setup, []float64{0.02, 0.02, 0.02}, []float64{0.03, 0.03, 0.03}, true, verdictOK},
		{"large setup change", setup, []float64{0.4, 0.4, 0.4}, []float64{0.6, 0.6, 0.6}, true, verdictRegressed},
	} {
		if got := judge(tc.def, tc.a, tc.b, tc.same).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// Failed ops are pooled over each side's runs, so a few failing runs among
// many clean ones still read as a regression.
func TestJudgeFailuresPoolsCounts(t *testing.T) {
	// runs returns n runs of 100 ops each; failed[i] ops of run i fail.
	runs := func(n int, failed ...int) []*result {
		rs := make([]*result, n)
		for i := range rs {
			rs[i] = &result{Attempted: 100}
			if i < len(failed) {
				rs[i].Failed = failed[i]
			}
		}
		return rs
	}
	for _, tc := range []struct {
		name string
		a, b []*result
		same bool
		want string
	}{
		{"no failures", runs(10), runs(10), true, verdictOK},
		{"1 of 10 runs fails one op", runs(10), runs(10, 1), true, verdictRegressed},
		{"4 of 10 runs fail", runs(10), runs(10, 2, 1, 1, 3), true, verdictRegressed},
		{"fewer failures", runs(10, 3), runs(10, 1), true, verdictOK},
		{"same failures", runs(10, 1), runs(10, 0, 1), true, verdictOK},
		{"other host shape", runs(10), runs(10), false, verdictIncomparable},
		{"one side missing", runs(10), nil, true, verdictIncomparable},
	} {
		if got := judgeFailures(tc.a, tc.b, tc.same).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	// The 1-of-10 case is one a comparison of medians would call ok.
	if m := judgeFailures(runs(10), runs(10, 1), true).B.Median; m != 0 {
		t.Errorf("B median %v, want 0", m)
	}
}

// compare reads results files, groups runs per workload and refuses to
// compare runs from different host shapes.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	shape := hostShape{NumCPU: 2, GOMAXPROCS: 2, W: 2, GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.24.0", CPUModel: "test"}
	write := func(name string, host hostShape, p50 float64, failed ...int) string {
		res := &result{Workload: "light-cold", Host: host, Attempted: 100, Metrics: map[string]value{}}
		if len(failed) > 0 {
			res.Failed = failed[0]
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = value{Value: 10, Unit: d.Unit}
		}
		res.Metrics["op_ms_p50"] = value{Value: p50, Unit: "ms"}
		res.Metrics[failedFrac.Name] = value{Unit: "share"}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, &report{Seed: 1, Workloads: []*result{res}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a1, a2 := write("a1.json", shape, 20), write("a2.json", shape, 20.2)
	b1, b2 := write("b1.json", shape, 30), write("b2.json", shape, 30.3)
	var out, errs bytes.Buffer
	if code := compareMain([]string{a1, a2, "--", b1, b2}, &out, &errs); code != 1 {
		t.Fatalf("exit %d, want 1 for a regression; stderr %s", code, errs.String())
	}
	if !strings.Contains(out.String(), "op_ms_p50") || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("output lacks the regressed op_ms_p50 row:\n%s", out.String())
	}
	if code := compareMain([]string{a1, "--", a2}, &out, &errs); code != 0 {
		t.Errorf("same-shape, same-speed runs: exit %d, want 0", code)
	}
	f := write("f.json", shape, 20, 1)
	out.Reset()
	if code := compareMain([]string{a1, a2, "--", a1, a2, f}, &out, &errs); code != 1 ||
		!strings.Contains(out.String(), "failed_frac") || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("one failed op in one of three runs: exit %d, output:\n%s", code, out.String())
	}
	other := shape
	other.NumCPU, other.GOMAXPROCS, other.W = 8, 8, 4
	c := write("c.json", other, 20)
	out.Reset()
	if code := compareMain([]string{a1, "--", c}, &out, &errs); code != 1 || !strings.Contains(out.String(), verdictIncomparable) {
		t.Errorf("cross-shape compare: exit %d, output:\n%s", code, out.String())
	}
	if code := compareMain([]string{a1}, &out, &errs); code != 2 {
		t.Errorf("missing separator: exit %d, want 2", code)
	}
}
