package opaquebench_test

// End-to-end integration tests: the three methodology stages chained through
// their file artifacts (design CSV -> engine -> results CSV -> offline
// analysis -> report), exactly the way the cmd tools compose, plus the
// downstream Figure 1 prediction flow.

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/membench"
	"opaquebench/internal/memsim"
	"opaquebench/internal/netbench"
	"opaquebench/internal/netsim"
	"opaquebench/internal/ossim"
	"opaquebench/internal/predict"
	"opaquebench/internal/report"
	"opaquebench/internal/runner"
	"opaquebench/internal/stats"
)

func TestMemoryPipelineThroughCSVArtifacts(t *testing.T) {
	// Stage 1: design, serialized and re-parsed as the CSV artifact.
	factors := membench.Factors(
		[]int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10},
		[]int{1}, []int{16}, []int{200}, []bool{true})
	design, err := doe.FullFactorial(factors, doe.Options{Replicates: 8, Seed: 42, Randomize: true})
	if err != nil {
		t.Fatal(err)
	}
	var designCSV bytes.Buffer
	if err := design.WriteCSV(&designCSV); err != nil {
		t.Fatal(err)
	}
	design2, err := doe.ReadCSV(&designCSV)
	if err != nil {
		t.Fatal(err)
	}

	// Stage 2: engine executes the parsed design.
	eng, err := membench.NewEngine(membench.Config{Machine: memsim.CoreI7(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Sequential(context.Background(), design2, eng)
	if err != nil {
		t.Fatal(err)
	}
	var resultsCSV bytes.Buffer
	if err := res.WriteCSV(&resultsCSV); err != nil {
		t.Fatal(err)
	}
	res2, err := core.ReadCSV(&resultsCSV)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != design.Size() {
		t.Fatalf("records = %d, want %d", res2.Len(), design.Size())
	}

	// Stage 3: the reloaded raw data supports the full analysis.
	groups := core.SummarizeBy(res2, membench.FactorSize)
	if len(groups) != 5 {
		t.Fatalf("groups = %d", len(groups))
	}
	// The i7's L1 step must survive the round trip: 16 KB >> 64 KB.
	var in, out float64
	for _, g := range groups {
		switch int(g.X) {
		case 16 << 10:
			in = g.Summary.Median
		case 64 << 10:
			out = g.Summary.Median
		}
	}
	if in < out*1.5 {
		t.Fatalf("L1 step lost through CSV: in=%v out=%v", in, out)
	}
}

func TestNetworkPipelineToPredictionFlow(t *testing.T) {
	// Characterize the simulated cluster.
	profile := netsim.Taurus()
	design, err := netbench.Design(7, 200, 16, 2<<20, 3, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := netbench.NewEngine(netbench.Config{Profile: profile, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	netRes, err := runner.Sequential(context.Background(), design, eng)
	if err != nil {
		t.Fatal(err)
	}
	netModel, err := netbench.FitLogGP(netRes, profile.Breakpoints())
	if err != nil {
		t.Fatal(err)
	}

	// Characterize the simulated machine's memory.
	var sizes []int
	for s := 8 << 10; s <= 4<<20; s *= 2 {
		sizes = append(sizes, s)
	}
	memDesign, err := doe.FullFactorial(
		membench.Factors(sizes, []int{1}, []int{8}, []int{300}, []bool{true}),
		doe.Options{Replicates: 3, Seed: 8, Randomize: true})
	if err != nil {
		t.Fatal(err)
	}
	memEng, err := membench.NewEngine(membench.Config{Machine: memsim.Opteron(), Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	memRes, err := runner.Sequential(context.Background(), memDesign, memEng)
	if err != nil {
		t.Fatal(err)
	}
	memSig, err := predict.ExtractMemorySignature(memRes, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Convolve both signatures with a synthetic 2-rank application.
	blk := predict.Block{Accesses: 2_000_000, ElemBytes: 8, WorkingSetBytes: 32 << 10}
	trace := []predict.Event{
		{Kind: predict.EvCompute, Rank: 0, Block: blk},
		{Kind: predict.EvCompute, Rank: 1, Block: blk},
		{Kind: predict.EvSend, Rank: 0, Peer: 1, Size: 100_000},
		{Kind: predict.EvRecv, Rank: 1, Peer: 0, Size: 100_000},
		{Kind: predict.EvSend, Rank: 1, Peer: 0, Size: 100_000},
		{Kind: predict.EvRecv, Rank: 0, Peer: 1, Size: 100_000},
	}
	pred, err := predict.Replay(memSig, netModel, 2, trace)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Makespan <= 0 {
		t.Fatalf("prediction = %+v", pred)
	}
	// Sanity bound: the makespan must cover one compute block plus one
	// ground-truth round trip, and not be wildly larger.
	truthRTT := profile.RegimeFor(100_000).RTT(100_000)
	lower := memSig.Seconds(blk) + truthRTT*0.5
	upper := memSig.Seconds(blk)*3 + truthRTT*3
	if pred.Makespan < lower || pred.Makespan > upper {
		t.Fatalf("makespan %v outside sanity bounds [%v, %v]", pred.Makespan, lower, upper)
	}
}

func TestReportFlagsInjectedPitfall(t *testing.T) {
	// An RT-policy ARM campaign must come back from the automated report
	// with the right warnings — end to end, no manual analysis.
	design, err := doe.FullFactorial(
		membench.Factors([]int{8 << 10, 16 << 10, 24 << 10}, nil, nil, []int{200}, nil),
		doe.Options{Replicates: 30, Seed: 27, Randomize: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := membench.NewEngine(membench.Config{
		Machine: memsim.ARMSnowball(),
		Seed:    27,
		Sched:   ossim.Config{Policy: ossim.PolicyRT, DaemonPeriodSec: 8, DaemonDuty: 0.25},
		GapSec:  0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Sequential(context.Background(), design, eng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := report.Build(res, report.Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Render()
	for _, want := range []string{"real-time scheduling policy", "bimodal values"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
}

func TestOpaqueVsWhiteBoxHeadline(t *testing.T) {
	// The repository's one-sentence claim, as a test: on identical data,
	// the opaque summary (mean, stddev) is consistent with a unimodal
	// distribution 3x tighter than reality, while the white-box analysis
	// recovers the true two-mode structure.
	design, err := doe.FullFactorial(
		membench.Factors([]int{8 << 10}, nil, nil, []int{200}, nil),
		doe.Options{Replicates: 90, Seed: 27, Randomize: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := membench.NewEngine(membench.Config{
		Machine: memsim.ARMSnowball(),
		Seed:    27,
		Sched:   ossim.Config{Policy: ossim.PolicyRT, DaemonPeriodSec: 8, DaemonDuty: 0.25},
		GapSec:  0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Sequential(context.Background(), design, eng)
	if err != nil {
		t.Fatal(err)
	}
	vals := res.Values()
	mean, sd := stats.Mean(vals), stats.Stddev(vals)

	d, err := core.DiagnoseModes(res)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Split.Bimodal(0.05, 3) {
		t.Skipf("seed produced no second mode in this window (low frac %v)", d.LowModeFraction)
	}
	// The mean sits between the modes and describes neither.
	if math.Abs(mean-d.Split.HighMean) < 2*sd/3 && math.Abs(mean-d.Split.LowMean) < 2*sd/3 {
		t.Fatal("degenerate mode split")
	}
	if d.Split.Ratio() < 3 {
		t.Fatalf("mode ratio %v", d.Split.Ratio())
	}
}

func TestScreeningDesignFindsDominantFactors(t *testing.T) {
	// A Plackett-Burman screening campaign over five two-level factors of
	// the Figure 13 diagram; the main-effects analysis must rank the
	// genuinely dominant factors (working-set size, unrolling) above a
	// placebo factor (nloops 200 vs 201).
	factors := []doe.Factor{
		doe.IntFactor(membench.FactorSize, 8<<10, 4<<20),
		doe.IntFactor(membench.FactorStride, 1, 2),
		doe.IntFactor(membench.FactorElem, 4, 8),
		doe.IntFactor(membench.FactorUnroll, 0, 1),
		doe.IntFactor(membench.FactorNLoops, 200, 201),
	}
	design, err := doe.PlackettBurman(factors, doe.Options{Replicates: 4, Seed: 3, Randomize: true})
	if err != nil {
		t.Fatal(err)
	}
	if design.Size() != 8*4 {
		t.Fatalf("runs = %d, want 32 (PB-8 x 4 replicates)", design.Size())
	}
	eng, err := membench.NewEngine(membench.Config{Machine: memsim.Opteron(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Sequential(context.Background(), design, eng)
	if err != nil {
		t.Fatal(err)
	}
	effects, err := core.MainEffects(res)
	if err != nil {
		t.Fatal(err)
	}
	rank := map[string]int{}
	eta := map[string]float64{}
	for i, e := range effects {
		rank[e.Factor] = i
		eta[e.Factor] = e.EtaSquared
	}
	if rank[membench.FactorSize] > rank[membench.FactorNLoops] {
		t.Fatalf("size (eta2 %.3f) should outrank the placebo nloops (eta2 %.3f)",
			eta[membench.FactorSize], eta[membench.FactorNLoops])
	}
	if eta[membench.FactorNLoops] > 0.05 {
		t.Fatalf("placebo factor eta2 = %v, want ~0", eta[membench.FactorNLoops])
	}
	if eta[membench.FactorSize] < 0.1 {
		t.Fatalf("size eta2 = %v, want substantial", eta[membench.FactorSize])
	}
}
