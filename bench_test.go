package opaquebench_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/figures"
	"opaquebench/internal/membench"
	"opaquebench/internal/memsim"
	"opaquebench/internal/runner"
)

// One benchmark per paper table/figure: each iteration regenerates the
// experiment end to end (design -> simulated campaign -> offline analysis)
// and reports its headline check values as custom metrics. Run with
//
//	go test -bench=. -benchmem
//
// The absolute bandwidths/latencies are properties of the simulated
// substrate, not of the host; the *shapes* are what EXPERIMENTS.md compares
// against the paper.

func benchFigure(b *testing.B, id string, metrics ...string) {
	g, err := figures.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var last *figures.Figure
	for i := 0; i < b.N; i++ {
		// Vary the seed across iterations so the benchmark measures the
		// generator, not one memoizable draw.
		f, err := g.Make(20170529 + uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	for _, m := range metrics {
		if v, ok := last.Checks[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

func BenchmarkFig03MyrinetPiecewise(b *testing.B) {
	benchFigure(b, "fig03", "openmpi/auto_breaks", "gm/auto_breaks")
}

func BenchmarkFig04TaurusLogGP(b *testing.B) {
	benchFigure(b, "fig04", "auto_break_count", "recv_cv_mid_max")
}

func BenchmarkFig05MachineTable(b *testing.B) {
	benchFigure(b, "fig05", "machines")
}

func BenchmarkFig07OpteronPlateaus(b *testing.B) {
	benchFigure(b, "fig07", "L2_stride2_over_stride4", "L1_stride2_over_stride8")
}

func BenchmarkFig08PentiumNoise(b *testing.B) {
	benchFigure(b, "fig08", "mean_per_size_cv")
}

func BenchmarkFig09VectorUnroll(b *testing.B) {
	benchFigure(b, "fig09", "width_8B_over_4B", "avx_anomaly_unroll_over_plain", "drop_4B_nounroll")
}

func BenchmarkFig10OndemandDVFS(b *testing.B) {
	benchFigure(b, "fig10", "low_plateau_over_high")
}

func BenchmarkFig11RTScheduling(b *testing.B) {
	benchFigure(b, "fig11", "mode_ratio", "low_mode_fraction", "contiguity")
}

func BenchmarkFig12ARMPaging(b *testing.B) {
	benchFigure(b, "fig12", "distinct_drop_points")
}

func BenchmarkFig13FactorDiagram(b *testing.B) {
	benchFigure(b, "fig13", "factor_groups")
}

func BenchmarkPitfallPerturbation(b *testing.B) {
	benchFigure(b, "pitfall-III.1", "opaque_spurious_breaks", "whitebox_breaks")
}

func BenchmarkPitfallSizeBias(b *testing.B) {
	benchFigure(b, "pitfall-III.2", "pow2_bias_factor", "detected_penalty")
}

func BenchmarkPitfallBreakAssumption(b *testing.B) {
	benchFigure(b, "pitfall-III.3", "neutral_break_count", "assumed_sse_over_neutral_sse")
}

func BenchmarkPagingFix(b *testing.B) {
	benchFigure(b, "pitfall-IV.4-fix", "pool_cross_run_cv", "arena_cross_run_cv")
}

// Ablation benches: each removes one ingredient of the methodology or the
// substrate and reports what it cost (see DESIGN.md).

func BenchmarkAblationRandomization(b *testing.B) {
	benchFigure(b, "ablation-randomization", "ordered_spread", "randomized_spread")
}

func BenchmarkAblationWeighting(b *testing.B) {
	benchFigure(b, "ablation-weighting", "unweighted_spurious_breaks", "weighted_spurious_breaks")
}

func BenchmarkAblationReplacement(b *testing.B) {
	benchFigure(b, "ablation-replacement", "lru_worst_slowdown", "random_worst_slowdown")
}

func BenchmarkAblationExtrapolation(b *testing.B) {
	benchFigure(b, "ablation-extrapolation", "max_rel_error")
}

func BenchmarkAblationTLB(b *testing.B) {
	benchFigure(b, "ablation-tlb", "stride1024_tlb_over_plain")
}

func BenchmarkExtStream(b *testing.B) {
	benchFigure(b, "ext-stream", "mem_copy_over_sum", "mem_triad_over_copy")
}

// campaign10k is a 10k-trial membench campaign: 16 distinct points, each
// replicated 625 times. The engines of one membench.Factory share a kernel
// memo, so the campaign simulates each sweep once per Factory.
func campaign10k(tb testing.TB) (*doe.Design, core.EngineFactory) {
	tb.Helper()
	d, err := doe.FullFactorial(
		membench.Factors(
			[]int{4 << 10, 16 << 10, 64 << 10, 256 << 10},
			[]int{1, 2, 4, 8}, nil, []int{200}, nil),
		doe.Options{Replicates: 625, Seed: 1, Randomize: true})
	if err != nil {
		tb.Fatal(err)
	}
	if d.Size() != 10000 {
		tb.Fatalf("design has %d trials, want 10000", d.Size())
	}
	return d, membench.Factory(membench.Config{Machine: memsim.CoreI7(), Seed: 1})
}

// BenchmarkCampaign10kSerial runs campaign10k through runner.Sequential,
// the runner's inline one-worker schedule:
//
//	go test -bench=Campaign10k -benchtime=1x
//
// It builds its Factory once, outside the timed loop, so after the first
// op it measures the runner, the per-trial noise and record path, and the
// memo lookup, not memsim; BenchmarkStreamI7Ladder is the memsim rung and
// BenchmarkMemColdCampaign the cold campaign rung.
func BenchmarkCampaign10kSerial(b *testing.B) {
	d, factory := campaign10k(b)
	eng, err := factory.NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Sequential(context.Background(), d, eng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemColdCampaign is the cold campaign rung: one op builds a
// fresh membench.Factory, so its memo starts empty, and runs the
// end-to-end benchmark's mem-cold campaign (Core i7, sizes 4 KB to 4 MB,
// strides 1 and 16, 2 replicates) through runner.Run, at one worker and
// at one per CPU. The op simulates the campaign's six sweeps once each;
// comparing the two rungs shows whether extra workers still help once
// the memo has removed the duplicate simulations.
func BenchmarkMemColdCampaign(b *testing.B) {
	cfg, d, err := membench.FromSpec(membench.Spec{
		Machine: "i7",
		Sizes:   []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20},
		Strides: []int{1, 16},
		Reps:    2,
	}, 41)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=NumCPU", runtime.NumCPU()}} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(context.Background(), d, membench.Factory(cfg),
					runner.Config{Workers: w.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamI7Ladder is the direct memsim rung: one op runs the sum
// kernel of the benchmark's mem-cold workload (Core i7, 4-byte elements,
// 100 loops) over its six sizes from 4 KB to 4 MB, each on a flushed
// hierarchy as an indexed trial sees it, calling memsim.RunStream directly
// so no kernel memo is involved. Stride 1 puts 16 loads on each 64-byte
// line and exercises the line-granular stream; stride 16 makes one load
// per line and bypasses it.
func BenchmarkStreamI7Ladder(b *testing.B) {
	sizes := []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
	m := memsim.CoreI7()
	for _, stride := range []int{1, 16} {
		b.Run(fmt.Sprintf("stride=%d", stride), func(b *testing.B) {
			h, err := m.NewHierarchy()
			if err != nil {
				b.Fatal(err)
			}
			buf, err := memsim.NewContiguousAllocator(m.PageBytes).Alloc(sizes[len(sizes)-1])
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, size := range sizes {
					h.Flush()
					p := memsim.KernelParams{SizeBytes: size, Stride: stride, ElemBytes: 4, NLoops: 100}
					if _, err := memsim.RunStream(m, h, []*memsim.Buffer{buf}, p, memsim.StreamSum); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestParallelSpeedupAt4Workers measures the 10k-trial campaign serially
// and at 4 workers. Sibling test binaries share the host's cores, so a
// positive speedup target here would flake under contention; the test
// instead guards the regression direction — sharding must never make a
// campaign materially slower — and logs the measured ratio. The speedup
// demonstration is BenchmarkMemColdCampaign/workers=NumCPU against
// /workers=1, run alone on a quiet host
// (`go test -bench=MemColdCampaign -benchtime=1x`).
func TestParallelSpeedupAt4Workers(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-trial campaign timing; skipped in -short")
	}
	if raceEnabled {
		t.Skip("wall-clock ratios are noise under the race detector's 5-15x slowdown")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for a speedup measurement, have %d", runtime.NumCPU())
	}
	d, factory := campaign10k(t)
	eng, err := factory.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	serial, err := runner.Sequential(context.Background(), d, eng)
	if err != nil {
		t.Fatal(err)
	}
	serialDur := time.Since(t0)
	t0 = time.Now()
	parallel, err := runner.Run(context.Background(), d, factory, runner.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	parallelDur := time.Since(t0)
	if parallel.Len() != serial.Len() {
		t.Fatalf("parallel %d records, serial %d", parallel.Len(), serial.Len())
	}
	speedup := float64(serialDur) / float64(parallelDur)
	t.Logf("10k trials: serial %v, 4 workers %v, speedup %.2fx", serialDur, parallelDur, speedup)
	if speedup < 0.8 {
		t.Fatalf("4 workers ran %.2fx the serial speed — sharding made the campaign slower (serial %v, parallel %v)",
			speedup, serialDur, parallelDur)
	}
}
