package figures

import (
	"context"
	"fmt"
	"strings"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/membench"
	"opaquebench/internal/memsim"
	"opaquebench/internal/plot"
	"opaquebench/internal/runner"
	"opaquebench/internal/stats"
	"opaquebench/internal/xrand"
)

// memCampaign runs a randomized white-box memory campaign.
func memCampaign(cfg membench.Config, factors []doe.Factor, reps int) (*core.Results, error) {
	d, err := doe.FullFactorial(factors, doe.Options{Replicates: reps, Seed: cfg.Seed, Randomize: true})
	if err != nil {
		return nil, err
	}
	eng, err := membench.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return runner.Sequential(context.Background(), d, eng)
}

// kb converts kibibyte counts to byte sizes.
func kb(ks ...int) []int {
	out := make([]int, len(ks))
	for i, k := range ks {
		out[i] = k << 10
	}
	return out
}

// medianSeries extracts per-size median bandwidth for records matching keep.
func medianSeries(res *core.Results, name string, keep func(core.RawRecord) bool) plot.Series {
	sub := res
	if keep != nil {
		sub = res.Filter(keep)
	}
	groups := core.SummarizeBy(sub, membench.FactorSize)
	s := plot.Series{Name: name}
	for _, g := range groups {
		s.X = append(s.X, g.X)
		s.Y = append(s.Y, g.Summary.Median)
	}
	return s
}

// medianInWindow returns the median of per-size medians for sizes in
// [lo, hi).
func medianInWindow(s plot.Series, lo, hi float64) float64 {
	var vals []float64
	for i, x := range s.X {
		if x >= lo && x < hi {
			vals = append(vals, s.Y[i])
		}
	}
	return stats.Median(vals)
}

// Fig07 reproduces the MultiMAPS plateaus of Figure 7 on the Opteron:
// bandwidth plateaus for L1, L2 and memory; strides irrelevant inside L1 and
// halving bandwidth beyond it.
func Fig07(seed uint64) (*Figure, error) {
	sizes := kb(8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096)
	f := &Figure{
		ID:     "fig07",
		Title:  "Memory bandwidth vs working-set size on the Opteron (strides 2/4/8)",
		Checks: map[string]float64{},
		PlotOptions: plot.Options{
			Width: 76, Height: 20, LogX: true,
			XLabel: "buffer size (B)", YLabel: "bandwidth (MB/s)",
		},
	}
	var text strings.Builder
	byStride := map[int]plot.Series{}
	for _, stride := range []int{2, 4, 8} {
		cfg := membench.Config{Machine: memsim.Opteron(), Seed: xrand.Derive(seed, fmt.Sprintf("fig07/s%d", stride))}
		res, err := memCampaign(cfg, membench.Factors(sizes, []int{stride}, nil, []int{200}, nil), 3)
		if err != nil {
			return nil, err
		}
		s := medianSeries(res, fmt.Sprintf("stride %d", stride), nil)
		byStride[stride] = s
		f.Series = append(f.Series, s)
	}
	l1 := float64(memsim.Opteron().L1().SizeBytes)
	l2 := float64(memsim.Opteron().Levels[1].SizeBytes)
	for _, stride := range []int{2, 4, 8} {
		s := byStride[stride]
		pl1 := medianInWindow(s, 0, l1)
		pl2 := medianInWindow(s, l1*1.5, l2)
		pmem := medianInWindow(s, l2*2, 1e18)
		fmt.Fprintf(&text, "stride %d plateaus: L1=%.0f L2=%.0f mem=%.0f MB/s\n", stride, pl1, pl2, pmem)
		f.Checks[fmt.Sprintf("stride%d/L1_over_L2", stride)] = pl1 / pl2
		f.Checks[fmt.Sprintf("stride%d/L2_over_mem", stride)] = pl2 / pmem
	}
	f.Checks["L2_stride2_over_stride4"] = medianInWindow(byStride[2], l1*1.5, l2) / medianInWindow(byStride[4], l1*1.5, l2)
	f.Checks["L2_stride4_over_stride8"] = medianInWindow(byStride[4], l1*1.5, l2) / medianInWindow(byStride[8], l1*1.5, l2)
	f.Checks["L1_stride2_over_stride8"] = medianInWindow(byStride[2], 0, l1) / medianInWindow(byStride[8], 0, l1)
	f.Text = text.String()
	return f, nil
}

// Fig08 reproduces the noisy Pentium 4 replication attempt of Figure 8:
// randomized sizes and strides, 42 repetitions, enormous per-size noise, and
// an ambiguous stride effect — plus the LOESS trend lines of the original.
func Fig08(seed uint64) (*Figure, error) {
	sizes := doe.RandomSizes(xrand.Derive(seed, "fig08/sizes"), 50, 1<<10, 30<<10)
	f := &Figure{
		ID:     "fig08",
		Title:  "Replication attempt on the Pentium 4: raw points and LOESS trends",
		Checks: map[string]float64{},
		PlotOptions: plot.Options{
			Width: 76, Height: 20,
			XLabel: "buffer size (B)", YLabel: "bandwidth (MB/s)",
		},
	}
	var text strings.Builder
	var overallCV []float64
	strideMeans := map[int]float64{}
	for _, stride := range []int{2, 4, 8} {
		cfg := membench.Config{Machine: memsim.PentiumIV(), Seed: xrand.Derive(seed, fmt.Sprintf("fig08/s%d", stride))}
		res, err := memCampaign(cfg, membench.Factors(sizes, []int{stride}, nil, []int{100}, nil), 42)
		if err != nil {
			return nil, err
		}
		xs, ys := res.XY(membench.FactorSize)
		f.Series = append(f.Series, plot.Series{Name: fmt.Sprintf("stride %d", stride), X: xs, Y: ys})
		sm, err := stats.LoessSelf(xs, ys, 0.4)
		if err != nil {
			return nil, err
		}
		f.Series = append(f.Series, plot.Series{Name: "", X: xs, Y: sm, Marker: '.'})
		for _, cv := range core.VariabilityByGroup(res, membench.FactorSize) {
			overallCV = append(overallCV, cv)
		}
		strideMeans[stride] = stats.Mean(ys)
	}
	meanCV := stats.Mean(overallCV)
	f.Checks["mean_per_size_cv"] = meanCV
	f.Checks["stride2_over_stride8_mean"] = strideMeans[2] / strideMeans[8]
	fmt.Fprintf(&text, "mean per-size CV = %.3f (paper: 'enormous experimental noise')\n", meanCV)
	fmt.Fprintf(&text, "stride mean bandwidths: 2=%.0f 4=%.0f 8=%.0f MB/s — influence 'ambiguous', no clean factor-2\n",
		strideMeans[2], strideMeans[4], strideMeans[8])
	f.Text = text.String()
	return f, nil
}

// Fig09 reproduces the vectorization x unrolling grid of Figure 9 on the
// i7-2600: eight facets (element width x unroll), the monotone width
// scaling, the unrolling gains, the AVX+unroll anomaly, and the
// demand-dependent visibility of the L1 drop.
func Fig09(seed uint64) (*Figure, error) {
	sizes := kb(1, 2, 4, 8, 12, 16, 20, 24, 32, 40, 48, 64, 80, 100)
	f := &Figure{
		ID:     "fig09",
		Title:  "Element width x loop unrolling on the i7-2600",
		Checks: map[string]float64{},
		PlotOptions: plot.Options{
			Width: 76, Height: 22, LogY: true,
			XLabel: "buffer size (B)", YLabel: "bandwidth (MB/s)",
		},
	}
	cfg := membench.Config{Machine: memsim.CoreI7(), Seed: xrand.Derive(seed, "fig09")}
	factors := membench.Factors(sizes, []int{1}, []int{4, 8, 16, 32}, []int{300}, []bool{false, true})
	res, err := memCampaign(cfg, factors, 3)
	if err != nil {
		return nil, err
	}

	var text strings.Builder
	l1 := float64(memsim.CoreI7().L1().SizeBytes)
	inL1 := map[string]float64{}
	pastL1 := map[string]float64{}
	for _, elem := range []int{4, 8, 16, 32} {
		for _, unroll := range []string{"0", "1"} {
			e, u := elem, unroll
			s := medianSeries(res, fmt.Sprintf("%dB u=%s", e, u), func(r core.RawRecord) bool {
				return r.Point.Get(membench.FactorElem) == fmt.Sprint(e) &&
					r.Point.Get(membench.FactorUnroll) == u
			})
			f.Series = append(f.Series, s)
			key := fmt.Sprintf("%d/%s", e, u)
			inL1[key] = medianInWindow(s, 0, l1*0.8)
			pastL1[key] = medianInWindow(s, l1*1.5, 1e18)
			fmt.Fprintf(&text, "elem=%2dB unroll=%s: in-L1=%8.0f past-L1=%8.0f MB/s (drop ratio %.2f)\n",
				e, u, inL1[key], pastL1[key], pastL1[key]/inL1[key])
		}
	}
	f.Checks["width_8B_over_4B"] = inL1["8/0"] / inL1["4/0"]
	f.Checks["unroll_gain_8B"] = inL1["8/1"] / inL1["8/0"]
	f.Checks["avx_anomaly_unroll_over_plain"] = inL1["32/1"] / inL1["32/0"]
	f.Checks["drop_4B_nounroll"] = pastL1["4/0"] / inL1["4/0"]
	f.Checks["drop_16B_unroll"] = pastL1["16/1"] / inL1["16/1"]
	f.Text = text.String()
	return f, nil
}
