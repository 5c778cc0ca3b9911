package report

import (
	"context"
	"strings"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/cpusim"
	"opaquebench/internal/doe"
	"opaquebench/internal/membench"
	"opaquebench/internal/memsim"
	"opaquebench/internal/ossim"
	"opaquebench/internal/runner"
)

func campaign(t *testing.T, cfg membench.Config, sizes []int, nloops []int, reps int, randomize bool) *core.Results {
	t.Helper()
	d, err := doe.FullFactorial(membench.Factors(sizes, nil, nil, nloops, nil),
		doe.Options{Replicates: reps, Seed: cfg.Seed, Randomize: randomize})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := membench.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Sequential(context.Background(), d, eng)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(&core.Results{}, Options{}); err == nil {
		t.Fatal("empty results accepted")
	}
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("nil results accepted")
	}
}

func TestCleanCampaignNoWarnings(t *testing.T) {
	cfg := membench.Config{Machine: memsim.Opteron(), Seed: 1}
	res := campaign(t, cfg, []int{8 << 10, 12 << 10, 24 << 10, 48 << 10}, []int{200}, 10, true)
	r, err := Build(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range r.Warnings {
		t.Errorf("unexpected warning: %s", w)
	}
	text := r.Render()
	if !strings.Contains(text, "no pitfall preconditions detected") {
		t.Fatalf("clean campaign report:\n%s", text)
	}
	if !strings.Contains(text, "median") || !strings.Contains(text, "environment:") {
		t.Fatal("report missing sections")
	}
}

func TestWarnsOnUnrandomizedDesign(t *testing.T) {
	cfg := membench.Config{Machine: memsim.Opteron(), Seed: 2}
	res := campaign(t, cfg, []int{8 << 10, 16 << 10}, []int{100}, 5, false)
	r, err := Build(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasWarning(r, "NOT randomized") {
		t.Fatalf("warnings = %v", r.Warnings)
	}
}

func TestWarnsOnOndemandWithVaryingNloops(t *testing.T) {
	cfg := membench.Config{
		Machine:  memsim.CoreI7(),
		Seed:     3,
		Governor: cpusim.Ondemand{},
		GapSec:   0.03,
	}
	res := campaign(t, cfg, []int{16 << 10}, []int{20, 20000}, 5, true)
	r, err := Build(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasWarning(r, "ondemand governor with varying nloops") {
		t.Fatalf("warnings = %v", r.Warnings)
	}
}

func TestWarnsOnRTPolicyAndBimodality(t *testing.T) {
	cfg := membench.Config{
		Machine: memsim.ARMSnowball(),
		Seed:    27,
		Sched: ossim.Config{
			Policy:          ossim.PolicyRT,
			DaemonPeriodSec: 8,
			DaemonDuty:      0.25,
		},
		GapSec: 0.1,
	}
	res := campaign(t, cfg, []int{8 << 10, 16 << 10, 24 << 10}, []int{200}, 30, true)
	r, err := Build(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasWarning(r, "real-time scheduling policy") {
		t.Fatalf("warnings = %v", r.Warnings)
	}
	if !hasWarning(r, "bimodal values") {
		t.Fatalf("warnings = %v", r.Warnings)
	}
	if !hasWarning(r, "temporally contiguous") {
		t.Fatalf("warnings = %v", r.Warnings)
	}
}

func TestWarnsOnPow2OnlySizes(t *testing.T) {
	cfg := membench.Config{Machine: memsim.Opteron(), Seed: 4}
	res := campaign(t, cfg, []int{4096, 8192, 16384}, []int{100}, 3, true)
	r, err := Build(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasWarning(r, "powers of two") {
		t.Fatalf("warnings = %v", r.Warnings)
	}
}

func TestWarnsOnPoolAllocation(t *testing.T) {
	cfg := membench.Config{
		Machine:    memsim.ARMSnowball(),
		Seed:       5,
		Allocation: membench.AllocPool,
		PoolPages:  512,
	}
	res := campaign(t, cfg, []int{8 << 10, 12 << 10, 24 << 10}, []int{100}, 3, true)
	r, err := Build(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasWarning(r, "page reuse") {
		t.Fatalf("warnings = %v", r.Warnings)
	}
}

func TestReportHasCIs(t *testing.T) {
	cfg := membench.Config{Machine: memsim.Opteron(), Seed: 6}
	res := campaign(t, cfg, []int{8 << 10, 12 << 10}, []int{100}, 10, true)
	r, err := Build(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range r.Groups {
		if g.MedianCI.Width() < 0 {
			t.Fatalf("bad CI for %s: %+v", g.Level, g.MedianCI)
		}
		if !g.MedianCI.Contains(g.Median) {
			t.Fatalf("CI %+v excludes median %v", g.MedianCI, g.Median)
		}
	}
}

func hasWarning(r *Report, substr string) bool {
	for _, w := range r.Warnings {
		if strings.Contains(w, substr) {
			return true
		}
	}
	return false
}

func TestReportIncludesEffects(t *testing.T) {
	cfg := membench.Config{Machine: memsim.Opteron(), Seed: 9}
	res := campaign(t, cfg, []int{8 << 10, 512 << 10}, []int{100}, 6, true)
	r, err := Build(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Effects) == 0 {
		t.Fatal("no effects computed")
	}
	if !strings.Contains(r.Render(), "factor main effects") {
		t.Fatal("effects section missing from render")
	}
}
