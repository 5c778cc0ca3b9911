package membench

import (
	"context"
	"math"
	"strings"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/cpusim"
	"opaquebench/internal/doe"
	"opaquebench/internal/memsim"
	"opaquebench/internal/ossim"
	"opaquebench/internal/runner"
	"opaquebench/internal/stats"
)

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func sizesKB(ks ...int) []int {
	out := make([]int, len(ks))
	for i, k := range ks {
		out[i] = k << 10
	}
	return out
}

func runMem(t *testing.T, cfg Config, factors []doe.Factor, reps int) *core.Results {
	t.Helper()
	d, err := doe.FullFactorial(factors, doe.Options{Replicates: reps, Seed: cfg.Seed, Randomize: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Sequential(context.Background(), d, mustEngine(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Fatal("nil machine accepted")
	}
	if _, err := NewEngine(Config{Machine: memsim.Opteron(), Allocation: "slab"}); err == nil {
		t.Fatal("bad allocation accepted")
	}
}

func TestParseParams(t *testing.T) {
	p := doe.Point{"size": "4096", "stride": "2", "elem": "8", "nloops": "50", "unroll": "1"}
	kp, err := ParseParams(p)
	if err != nil {
		t.Fatal(err)
	}
	if kp.SizeBytes != 4096 || kp.Stride != 2 || kp.ElemBytes != 8 || kp.NLoops != 50 || !kp.Unroll {
		t.Fatalf("params = %+v", kp)
	}
}

func TestParseParamsDefaults(t *testing.T) {
	kp, err := ParseParams(doe.Point{"size": "1024"})
	if err != nil {
		t.Fatal(err)
	}
	if kp.Stride != 1 || kp.ElemBytes != 4 || kp.NLoops != 100 || kp.Unroll {
		t.Fatalf("defaults = %+v", kp)
	}
	if _, err := ParseParams(doe.Point{}); err == nil {
		t.Fatal("missing size accepted")
	}
	if _, err := ParseParams(doe.Point{"size": "4096", "stride": "x"}); err == nil {
		t.Fatal("bad stride accepted")
	}
}

func TestEngineProducesPositiveBandwidth(t *testing.T) {
	cfg := Config{Machine: memsim.Opteron(), Seed: 1}
	res := runMem(t, cfg, Factors(sizesKB(8, 16, 32), []int{1, 2}, nil, []int{100}, nil), 2)
	if res.Len() != 12 {
		t.Fatalf("records = %d", res.Len())
	}
	for _, r := range res.Records {
		if r.Value <= 0 || math.IsNaN(r.Value) {
			t.Fatalf("bandwidth = %v", r.Value)
		}
		if r.Extra["bound_by"] == "" {
			t.Fatal("missing bound_by annotation")
		}
	}
}

func TestEngineDeterministicPerSeed(t *testing.T) {
	cfg := Config{Machine: memsim.PentiumIV(), Seed: 9}
	factors := Factors(sizesKB(4, 8), nil, nil, []int{50}, nil)
	a := runMem(t, cfg, factors, 3)
	b := runMem(t, cfg, factors, 3)
	for i := range a.Records {
		if a.Records[i].Value != b.Records[i].Value {
			t.Fatal("same seed diverged")
		}
	}
}

func TestEngineEnvironmentCapture(t *testing.T) {
	cfg := Config{Machine: memsim.CoreI7(), Seed: 2, Governor: cpusim.Ondemand{}, Allocation: AllocArena}
	env := mustEngine(t, cfg).Environment()
	if env.Get("machine") != "Core i7-2600" {
		t.Fatalf("machine = %q", env.Get("machine"))
	}
	if env.Get("governor") != "ondemand" {
		t.Fatalf("governor = %q", env.Get("governor"))
	}
	if env.Get("alloc") != "arena-random-offset" {
		t.Fatalf("alloc = %q", env.Get("alloc"))
	}
}

func TestDVFSNLoopsMatters(t *testing.T) {
	// Section IV.2: under ondemand, nloops — which "should not have any
	// influence on the final bandwidth" — separates low and high plateaus.
	bandwidthFor := func(nloops int) float64 {
		cfg := Config{
			Machine:           memsim.CoreI7(),
			Seed:              3,
			Governor:          cpusim.Ondemand{},
			SamplingPeriodSec: 0.01,
		}
		res := runMem(t, cfg, Factors(sizesKB(16), nil, nil, []int{nloops}, nil), 20)
		return stats.Median(res.Values())
	}
	small := bandwidthFor(20)
	large := bandwidthFor(20000)
	if large < small*1.5 {
		t.Fatalf("ondemand should separate nloops plateaus: small=%v large=%v", small, large)
	}
}

func TestDVFSPerformanceGovernorImmune(t *testing.T) {
	bandwidthFor := func(nloops int) float64 {
		cfg := Config{Machine: memsim.CoreI7(), Seed: 4, Governor: cpusim.Performance{}}
		res := runMem(t, cfg, Factors(sizesKB(16), nil, nil, []int{nloops}, nil), 10)
		return stats.Median(res.Values())
	}
	small := bandwidthFor(20)
	large := bandwidthFor(20000)
	if math.Abs(large-small)/small > 0.05 {
		t.Fatalf("performance governor should be nloops-invariant: %v vs %v", small, large)
	}
}

func TestRTPolicyCreatesSecondMode(t *testing.T) {
	// Section IV.3 on the simulated ARM: RT scheduling policy yields a
	// bimodal, temporally contiguous second mode.
	cfg := Config{
		Machine: memsim.ARMSnowball(),
		Seed:    6,
		Sched: ossim.Config{
			Policy:          ossim.PolicyRT,
			DaemonPeriodSec: 8,
		},
		GapSec: 0.2,
	}
	res := runMem(t, cfg, Factors(sizesKB(2, 4, 8), nil, nil, []int{200}, nil), 30)
	d, err := core.DiagnoseModes(res)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Split.Bimodal(0.05, 2) {
		t.Fatalf("RT policy should produce two modes: %+v", d.Split)
	}
	if d.Split.Ratio() < 3 {
		t.Fatalf("mode ratio = %v, want >= 3", d.Split.Ratio())
	}
	if d.Contiguity < 0.4 {
		t.Fatalf("low mode should be temporally clustered: contiguity=%v", d.Contiguity)
	}
}

func TestOtherPolicyUnimodal(t *testing.T) {
	cfg := Config{
		Machine: memsim.ARMSnowball(),
		Seed:    6,
		Sched:   ossim.Config{Policy: ossim.PolicyOther},
		GapSec:  0.02,
	}
	res := runMem(t, cfg, Factors(sizesKB(2, 4, 8), nil, nil, []int{200}, nil), 30)
	d, err := core.DiagnoseModes(res)
	if err != nil {
		t.Fatal(err)
	}
	if d.Split.Bimodal(0.15, 10) {
		t.Fatalf("default policy should not be strongly bimodal: %+v", d.Split)
	}
}

func TestPoolAllocationMovesDropPoint(t *testing.T) {
	// Section IV.4: rerunning the identical campaign with a fresh page pool
	// (different seed = different random physical pages) moves the drop
	// point within [50%, 100%] of L1.
	dropSizeFor := func(seed uint64) int {
		cfg := Config{
			Machine:    memsim.ARMSnowball(),
			Seed:       seed,
			Allocation: AllocPool,
			PoolPages:  1024,
		}
		res := runMem(t, cfg, Factors(sizesKB(4, 8, 12, 16, 20, 24, 28, 32), nil, nil, []int{300}, nil), 3)
		groups := core.SummarizeBy(res, FactorSize)
		peak := groups[0].Summary.Median
		for _, g := range groups {
			if g.Summary.Median < peak*0.7 {
				return int(g.X)
			}
		}
		return 1 << 30 // no drop observed
	}
	seen := map[int]bool{}
	for seed := uint64(0); seed < 8; seed++ {
		seen[dropSizeFor(seed)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("drop point should move across reruns, got %v", seen)
	}
}

func TestArenaAllocationReproducible(t *testing.T) {
	// The paper's fix: random-offset arena allocation makes campaigns
	// reproducible in distribution — median bandwidth per size is stable
	// across seeds (no more frozen unlucky page draw).
	medianCurve := func(seed uint64) []float64 {
		cfg := Config{
			Machine:    memsim.ARMSnowball(),
			Seed:       seed,
			Allocation: AllocArena,
			ArenaBytes: 2 << 20,
		}
		res := runMem(t, cfg, Factors(sizesKB(8, 16, 24, 32), nil, nil, []int{300}, nil), 15)
		groups := core.SummarizeBy(res, FactorSize)
		out := make([]float64, len(groups))
		for i, g := range groups {
			out[i] = g.Summary.Median
		}
		return out
	}
	a := medianCurve(100)
	b := medianCurve(200)
	for i := range a {
		if math.Abs(a[i]-b[i])/a[i] > 0.25 {
			t.Fatalf("arena medians unstable at point %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFactorsHelper(t *testing.T) {
	fs := Factors([]int{1024}, []int{1, 2}, []int{4, 8}, []int{10}, []bool{false, true})
	if len(fs) != 5 {
		t.Fatalf("factors = %d", len(fs))
	}
	names := map[string]bool{}
	for _, f := range fs {
		names[f.Name] = true
	}
	for _, want := range []string{FactorSize, FactorStride, FactorElem, FactorNLoops, FactorUnroll} {
		if !names[want] {
			t.Fatalf("missing factor %s", want)
		}
	}
}

func TestFactorDiagramMentionsAllGroups(t *testing.T) {
	d := FactorDiagram()
	for _, want := range []string{"Experiment plan", "Memory allocation", "Operating system", "Compilation", "Architecture", "Bandwidth"} {
		if !strings.Contains(d, want) {
			t.Fatalf("diagram missing %q:\n%s", want, d)
		}
	}
}

func TestStreamKernelFactor(t *testing.T) {
	cfg := Config{Machine: memsim.Opteron(), Seed: 31}
	factors := append(Factors(sizesKB(8, 4096), nil, nil, []int{200}, nil),
		doe.NewFactor(FactorKernel, "sum", "copy", "triad"))
	res := runMem(t, cfg, factors, 3)
	if res.Len() != 2*3*3 {
		t.Fatalf("records = %d", res.Len())
	}
	median := func(kernel string, size int) float64 {
		sub := res.Filter(func(r core.RawRecord) bool {
			s, err := r.Point.Int(FactorSize)
			return err == nil && s == size && r.Point.Get(FactorKernel) == kernel
		})
		return stats.Median(sub.Values())
	}
	// L1-resident: all kernels issue-bound and equal-ish.
	small := 8 << 10
	if s, c := median("sum", small), median("copy", small); math.Abs(s-c)/s > 0.1 {
		t.Fatalf("L1-resident sum %v vs copy %v", s, c)
	}
	// Memory-resident: writes cost extra traffic.
	big := 4096 << 10
	if s, c := median("sum", big), median("copy", big); c >= s*0.9 {
		t.Fatalf("memory-resident copy %v should trail sum %v", c, s)
	}
}

func TestParseKind(t *testing.T) {
	if k, err := ParseKind(doe.Point{}); err != nil || k != memsim.StreamSum {
		t.Fatalf("default kind = %v, %v", k, err)
	}
	if k, err := ParseKind(doe.Point{FactorKernel: "triad"}); err != nil || k != memsim.StreamTriad {
		t.Fatalf("triad = %v, %v", k, err)
	}
	if _, err := ParseKind(doe.Point{FactorKernel: "saxpy"}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestExecuteBadPoint(t *testing.T) {
	e := mustEngine(t, Config{Machine: memsim.Opteron(), Seed: 1})
	_, err := e.Execute(doe.Trial{Point: doe.Point{"size": "-5"}})
	if err == nil {
		t.Fatal("negative size accepted")
	}
}
