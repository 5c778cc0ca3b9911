package figures

import (
	"context"
	"fmt"
	"strings"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/membench"
	"opaquebench/internal/memsim"
	"opaquebench/internal/netbench"
	"opaquebench/internal/netsim"
	"opaquebench/internal/ossim"
	"opaquebench/internal/runner"
	"opaquebench/internal/stats"
	"opaquebench/internal/xrand"
)

// This file holds ablations of the methodology's own design choices: each
// removes one ingredient (randomized order, relative-error weighting,
// LRU-faithful replacement, steady-state extrapolation) and quantifies what
// it bought.

// AblationRandomization removes the randomized execution order: the same ARM
// campaign under the same interference process, once ordered and once
// shuffled. The ordered schedule concentrates the interference window on a
// contiguous block of sizes, so per-size medians spread wide; the randomized
// schedule keeps the anomaly independent of the size factor.
func AblationRandomization(seed uint64) (*Figure, error) {
	f := &Figure{
		ID:     "ablation-randomization",
		Title:  "Ablating randomized order: per-size median spread under interference",
		Checks: map[string]float64{},
	}
	runSpread := func(randomize bool) (float64, error) {
		sizes := make([]int, 12)
		for i := range sizes {
			sizes[i] = (i + 1) << 10
		}
		d, err := doe.FullFactorial(
			membench.Factors(sizes, nil, nil, []int{200}, nil),
			doe.Options{
				Replicates:      12,
				Seed:            xrand.Derive(seed, "abl-rand/design"),
				Randomize:       randomize,
				GroupReplicates: true, // the Figure 2 inner repetition loop
			})
		if err != nil {
			return 0, err
		}
		eng, err := membench.NewEngine(membench.Config{
			Machine: memsim.ARMSnowball(),
			Seed:    xrand.Derive(seed, "abl-rand/engine4"),
			Sched: ossim.Config{
				Policy:          ossim.PolicyRT,
				DaemonPeriodSec: 4,
				DaemonDuty:      0.3,
			},
			GapSec: 0.1,
		})
		if err != nil {
			return 0, err
		}
		res, err := runner.Sequential(context.Background(), d, eng)
		if err != nil {
			return 0, err
		}
		var medians []float64
		for _, g := range core.SummarizeBy(res, membench.FactorSize) {
			medians = append(medians, g.Summary.Median)
		}
		return stats.Max(medians) / stats.Min(medians), nil
	}
	ordered, err := runSpread(false)
	if err != nil {
		return nil, err
	}
	randomized, err := runSpread(true)
	if err != nil {
		return nil, err
	}
	var text strings.Builder
	fmt.Fprintf(&text, "per-size median max/min ratio: ordered=%.2f randomized=%.2f\n", ordered, randomized)
	text.WriteString("ordered sweeps let the interference window masquerade as a size effect;\n")
	text.WriteString("randomization keeps temporal anomalies independent of the factors (Section V)\n")
	f.Checks["ordered_spread"] = ordered
	f.Checks["randomized_spread"] = randomized
	f.Text = text.String()
	return f, nil
}

// AblationWeighting removes the relative-error weighting from the segmented
// search: timing noise is multiplicative, so the unweighted BIC over-fits
// the large-size region of a clean single-regime curve with spurious breaks.
func AblationWeighting(seed uint64) (*Figure, error) {
	f := &Figure{
		ID:     "ablation-weighting",
		Title:  "Ablating relative-error weighting in the segmented search",
		Checks: map[string]float64{},
	}
	// A genuine campaign on the single-regime Myrinet/GM profile: the data
	// that misled the unweighted search during development.
	res, err := netCampaign(netsim.MyrinetGM(), xrand.Derive(seed, "abl-weight"), 180, 64, 65536, 2, nil)
	if err != nil {
		return nil, err
	}
	pp := res.Filter(func(r core.RawRecord) bool {
		return r.Point.Get(netbench.FactorOp) == string(netsim.OpPingPong)
	})
	xs, ys := pp.XY(netbench.FactorSize)
	unweighted, err := stats.SelectSegmented(xs, ys, 3, 12)
	if err != nil {
		return nil, err
	}
	weighted, err := stats.SelectSegmentedRelative(xs, ys, 3, 12)
	if err != nil {
		return nil, err
	}
	var text strings.Builder
	fmt.Fprintf(&text, "single-regime curve, multiplicative noise:\n")
	fmt.Fprintf(&text, "unweighted BIC search: %d break(s) %v\n", len(unweighted.Breaks), unweighted.Breaks)
	fmt.Fprintf(&text, "relative-weighted search: %d break(s) %v\n", len(weighted.Breaks), weighted.Breaks)
	f.Checks["unweighted_spurious_breaks"] = float64(len(unweighted.Breaks))
	f.Checks["weighted_spurious_breaks"] = float64(len(weighted.Breaks))
	f.Text = text.String()
	return f, nil
}

// AblationReplacement swaps the ARM L1's LRU policy for random replacement
// and reruns the Figure 12 setting: random replacement spreads conflict
// misses across the whole traversal instead of thrashing a color class, so
// the placement-dependent cliff softens — evidence that the sharpness of the
// paper's phenomenon hinges on the documented LRU behaviour.
func AblationReplacement(seed uint64) (*Figure, error) {
	f := &Figure{
		ID:     "ablation-replacement",
		Title:  "Ablating LRU: the paging cliff under random replacement",
		Checks: map[string]float64{},
	}
	worstRatio := func(repl memsim.Replacement) (float64, error) {
		m := memsim.ARMSnowball()
		m.Levels[0].Replacement = repl
		worst := 1.0
		for run := uint64(0); run < 6; run++ {
			alloc, err := memsim.NewPoolAllocator(m.PageBytes, 512, xrand.Derive(seed, fmt.Sprintf("abl-repl/%d/%d", repl, run)))
			if err != nil {
				return 0, err
			}
			h, err := m.NewHierarchy()
			if err != nil {
				return 0, err
			}
			buf, err := alloc.Alloc(24 << 10)
			if err != nil {
				return 0, err
			}
			p := memsim.KernelParams{SizeBytes: 24 << 10, Stride: 1, ElemBytes: 4, NLoops: 300}
			res, err := memsim.RunKernel(m, h, buf, p)
			if err != nil {
				return 0, err
			}
			issueOnly := res.IssueCycles
			ratio := res.Cycles / issueOnly
			if ratio > worst {
				worst = ratio
			}
			alloc.Free(buf)
		}
		return worst, nil
	}
	lru, err := worstRatio(memsim.LRU)
	if err != nil {
		return nil, err
	}
	random, err := worstRatio(memsim.RandomReplacement)
	if err != nil {
		return nil, err
	}
	var text strings.Builder
	fmt.Fprintf(&text, "worst-case slowdown vs issue-bound across 6 page draws (24 KB buffer):\n")
	fmt.Fprintf(&text, "LRU: %.2fx   random replacement: %.2fx\n", lru, random)
	text.WriteString("LRU turns an unlucky color draw into systematic whole-class thrashing;\n")
	text.WriteString("random replacement degrades gracefully\n")
	f.Checks["lru_worst_slowdown"] = lru
	f.Checks["random_worst_slowdown"] = random
	f.Text = text.String()
	return f, nil
}

// AblationExtrapolation quantifies the steady-state loop extrapolation in
// RunKernel: simulating only three traversals and extrapolating must agree
// with the exact simulation while being much cheaper.
func AblationExtrapolation(seed uint64) (*Figure, error) {
	f := &Figure{
		ID:     "ablation-extrapolation",
		Title:  "Steady-state extrapolation vs exact loop simulation",
		Checks: map[string]float64{},
	}
	m := memsim.ARMSnowball()
	alloc, err := memsim.NewPoolAllocator(m.PageBytes, 512, xrand.Derive(seed, "abl-extra"))
	if err != nil {
		return nil, err
	}
	var text strings.Builder
	maxRelErr := 0.0
	for _, sizeKB := range []int{8, 20, 24, 28, 40} {
		size := sizeKB << 10
		buf, err := alloc.Alloc(size)
		if err != nil {
			return nil, err
		}
		const nloops = 24
		hA, err := m.NewHierarchy()
		if err != nil {
			return nil, err
		}
		extrap, err := memsim.RunKernel(m, hA, buf, memsim.KernelParams{
			SizeBytes: size, Stride: 1, ElemBytes: 4, NLoops: nloops,
		})
		if err != nil {
			return nil, err
		}
		// Exact: nloops separate single traversals on one hierarchy.
		hB, err := m.NewHierarchy()
		if err != nil {
			return nil, err
		}
		var exactCycles float64
		for rep := 0; rep < nloops; rep++ {
			res, err := memsim.RunKernel(m, hB, buf, memsim.KernelParams{
				SizeBytes: size, Stride: 1, ElemBytes: 4, NLoops: 1,
			})
			if err != nil {
				return nil, err
			}
			exactCycles += res.Cycles
		}
		rel := abs(extrap.Cycles-exactCycles) / exactCycles
		if rel > maxRelErr {
			maxRelErr = rel
		}
		fmt.Fprintf(&text, "size=%2d KB: extrapolated=%.0f exact=%.0f cycles (rel err %.4f)\n",
			sizeKB, extrap.Cycles, exactCycles, rel)
		alloc.Free(buf)
	}
	f.Checks["max_rel_error"] = maxRelErr
	f.Text = text.String()
	return f, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// AblationTLB enables the (default-off) TLB model and sweeps the stride on
// a 1 MB buffer: once the stride reaches a page, every access walks the page
// table and bandwidth collapses — a mechanism that cache geometry alone
// cannot produce, and a reminder of how many hidden factors a "simple"
// strided kernel actually has (Figure 13's diagram is not exhaustive).
func AblationTLB(seed uint64) (*Figure, error) {
	f := &Figure{
		ID:     "ablation-tlb",
		Title:  "Ablating the free-translation assumption: stride sweep with a 64-entry TLB (100-cycle walks)",
		Checks: map[string]float64{},
	}
	run := func(withTLB bool, stride int) (float64, error) {
		m := memsim.CoreI7()
		if withTLB {
			m.TLBEntries = 64
			// Page walks on uncached page tables cost on the order of a
			// hundred cycles.
			m.TLBMissCycles = 100
		}
		h, err := m.NewHierarchy()
		if err != nil {
			return 0, err
		}
		buf, err := memsim.NewContiguousAllocator(m.PageBytes).Alloc(1 << 20)
		if err != nil {
			return 0, err
		}
		p := memsim.KernelParams{SizeBytes: 1 << 20, Stride: stride, ElemBytes: 4, NLoops: 50}
		res, err := memsim.RunStream(m, h, []*memsim.Buffer{buf}, p, memsim.StreamSum)
		if err != nil {
			return 0, err
		}
		return res.BandwidthMBps(4, res.Seconds(m.FreqTable.Max())), nil
	}
	var text strings.Builder
	text.WriteString("1 MB buffer (256 pages), stride sweep, bandwidth in MB/s:\n")
	fmt.Fprintf(&text, "%8s %12s %12s\n", "stride", "no TLB", "64-entry TLB")
	for _, stride := range []int{16, 64, 256, 1024} {
		plain, err := run(false, stride)
		if err != nil {
			return nil, err
		}
		tlbed, err := run(true, stride)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&text, "%8d %12.0f %12.0f\n", stride, plain, tlbed)
		f.Checks[fmt.Sprintf("stride%d_tlb_over_plain", stride)] = tlbed / plain
	}
	text.WriteString("at page-sized strides every access misses the TLB and the walk dominates\n")
	f.Text = text.String()
	_ = seed
	return f, nil
}

// ExtStream is an extension beyond the paper's L1-READ scope: the STREAM
// kernel family (the ancestor of MAPS/MultiMAPS) across the Opteron's
// hierarchy. Inside L1 all kernels are issue-bound and identical; out of
// cache, write-allocate fills plus writebacks cost real interface bandwidth
// and the ordering copy < triad < sum emerges.
func ExtStream(seed uint64) (*Figure, error) {
	f := &Figure{
		ID:     "ext-stream",
		Title:  "Extension: STREAM kernel family (sum/copy/triad) on the Opteron",
		Checks: map[string]float64{},
	}
	sizes := []int{8 << 10, 32 << 10, 128 << 10, 512 << 10, 4 << 20}
	factors := append(
		membench.Factors(sizes, nil, nil, []int{200}, nil),
		doe.NewFactor(membench.FactorKernel, "sum", "copy", "triad"),
	)
	cfg := membench.Config{Machine: memsim.Opteron(), Seed: xrand.Derive(seed, "ext-stream")}
	res, err := memCampaign(cfg, factors, 3)
	if err != nil {
		return nil, err
	}
	median := func(kernel string, size int) float64 {
		sub := res.Filter(func(r core.RawRecord) bool {
			v, err := r.Point.Int(membench.FactorSize)
			return err == nil && v == size && r.Point.Get(membench.FactorKernel) == kernel
		})
		return stats.Median(sub.Values())
	}
	var text strings.Builder
	fmt.Fprintf(&text, "%10s %10s %10s %10s (median MB/s)\n", "size", "sum", "copy", "triad")
	for _, size := range sizes {
		fmt.Fprintf(&text, "%9dK %10.0f %10.0f %10.0f\n", size>>10,
			median("sum", size), median("copy", size), median("triad", size))
	}
	small, big := 8<<10, 4<<20
	f.Checks["l1_copy_over_sum"] = median("copy", small) / median("sum", small)
	f.Checks["mem_copy_over_sum"] = median("copy", big) / median("sum", big)
	f.Checks["mem_triad_over_copy"] = median("triad", big) / median("copy", big)
	f.Text = text.String()
	return f, nil
}
