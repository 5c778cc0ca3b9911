package figures

import (
	"context"
	"fmt"
	"strings"

	"opaquebench/internal/core"
	"opaquebench/internal/membench"
	"opaquebench/internal/memsim"
	"opaquebench/internal/netbench"
	"opaquebench/internal/netsim"
	"opaquebench/internal/opaque"
	"opaquebench/internal/runner"
	"opaquebench/internal/stats"
	"opaquebench/internal/xrand"
)

// PitfallPerturbation reproduces Section III.1: the same temporal
// perturbation, applied to the single-regime Myrinet/GM profile, fakes a
// protocol change for NetGauge's ordered online detection, while the
// white-box randomized campaign keeps the perturbation independent of the
// size factor and the offline analysis finds no break.
func PitfallPerturbation(seed uint64) (*Figure, error) {
	f := &Figure{
		ID:     "pitfall-III.1",
		Title:  "Temporal perturbation: opaque online detection vs white-box randomization",
		Checks: map[string]float64{},
	}
	var text strings.Builder

	// Opaque: ordered NetGauge sweep with a perturbation mid-sweep.
	perturb := netsim.NewPerturber(4, netsim.Window{Start: 0.004, End: 0.02})
	net, err := netsim.New(netsim.MyrinetGM(), xrand.Derive(seed, "p31/opaque"), perturb)
	if err != nil {
		return nil, err
	}
	rep, err := opaque.RunNetGauge(net, netsim.OpPingPong, 1024, 65536, 512, 2, 5)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&text, "opaque NetGauge (ordered sweep, perturbed): %d spurious protocol change(s) at %v\n",
		len(rep.Breaks), rep.Breaks)
	f.Checks["opaque_spurious_breaks"] = float64(len(rep.Breaks))

	// White-box: randomized campaign under an equivalent perturbation.
	d, err := netbench.Design(xrand.Derive(seed, "p31/design"), 120, 1024, 65536, 4, []netsim.Op{netsim.OpPingPong}, true)
	if err != nil {
		return nil, err
	}
	eng, err := netbench.NewEngine(netbench.Config{
		Profile:   netsim.MyrinetGM(),
		Seed:      xrand.Derive(seed, "p31/whitebox"),
		Perturber: netsim.NewPerturber(4, netsim.Window{Start: 0.004, End: 0.02}),
	})
	if err != nil {
		return nil, err
	}
	res, err := runner.Sequential(context.Background(), d, eng)
	if err != nil {
		return nil, err
	}
	// Offline analysis on per-size medians (replication makes them robust).
	groups := core.SummarizeBy(res, netbench.FactorSize)
	var xs, ys []float64
	for _, g := range groups {
		xs = append(xs, g.X)
		ys = append(ys, g.Summary.Median)
	}
	auto, err := stats.SelectSegmentedRelative(xs, ys, 3, 10)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&text, "white-box randomized campaign, per-size medians, neutral search: %d break(s) %v\n",
		len(auto.Breaks), auto.Breaks)
	f.Checks["whitebox_breaks"] = float64(len(auto.Breaks))

	// And the raw log still shows the perturbation — as a temporal anomaly,
	// where it belongs.
	perturbed := 0
	for _, rec := range res.Records {
		if rec.Extra["perturbed"] == "true" {
			perturbed++
		}
	}
	fmt.Fprintf(&text, "white-box raw log: %d/%d measurements flagged in the perturbation window\n",
		perturbed, res.Len())
	f.Checks["whitebox_perturbed_fraction"] = float64(perturbed) / float64(res.Len())
	f.Text = text.String()
	return f, nil
}

// PitfallSizeBias reproduces Section III.2: a power-of-two sweep lands every
// probe on the planted 1024-aligned slow path of the Taurus eager range and
// absorbs the quirk into its model, while log-uniform sampling separates
// special sizes from the general behaviour.
func PitfallSizeBias(seed uint64) (*Figure, error) {
	f := &Figure{
		ID:     "pitfall-III.2",
		Title:  "Power-of-two size bias vs log-uniform sampling (Taurus eager sends)",
		Checks: map[string]float64{},
	}
	var text strings.Builder

	// Opaque PMB: powers of two only.
	net, err := netsim.New(netsim.Taurus(), xrand.Derive(seed, "p32/pmb"), nil)
	if err != nil {
		return nil, err
	}
	rows, err := opaque.RunPMB(net, 1024, 8192, 30, []netsim.Op{netsim.OpSend})
	if err != nil {
		return nil, err
	}
	var pmbMean float64
	for _, r := range rows {
		pmbMean += r.MeanSec
	}
	pmbMean /= float64(len(rows))

	// White-box: log-uniform sizes in the same range.
	d, err := netbench.Design(xrand.Derive(seed, "p32/design"), 250, 1024, 8192, 3, []netsim.Op{netsim.OpSend}, true)
	if err != nil {
		return nil, err
	}
	eng, err := netbench.NewEngine(netbench.Config{Profile: netsim.Taurus(), Seed: xrand.Derive(seed, "p32/wb")})
	if err != nil {
		return nil, err
	}
	res, err := runner.Sequential(context.Background(), d, eng)
	if err != nil {
		return nil, err
	}
	var unaligned []float64
	for _, rec := range res.Records {
		if size, err := rec.Point.Int(netbench.FactorSize); err == nil && size%1024 != 0 {
			unaligned = append(unaligned, rec.Value)
		}
	}
	wbMean := stats.Mean(unaligned)
	bias := pmbMean / wbMean
	fmt.Fprintf(&text, "PMB (pow2 only) mean eager send: %.3g s\n", pmbMean)
	fmt.Fprintf(&text, "white-box unaligned mean eager send: %.3g s\n", wbMean)
	fmt.Fprintf(&text, "pow2 grid overestimates the general case by %.0f%% (planted quirk: +25%% on 1024-aligned)\n",
		(bias-1)*100)
	f.Checks["pow2_bias_factor"] = bias

	// The white-box campaign can *also* quantify the special sizes once a
	// few aligned probes are added, which a pow2-only campaign cannot.
	alignedDesign, err := netbench.PowerOfTwoDesign(1024, 8192, 10, []netsim.Op{netsim.OpSend})
	if err != nil {
		return nil, err
	}
	aligned, err := runner.Sequential(context.Background(), alignedDesign, eng)
	if err != nil {
		return nil, err
	}
	res.Records = append(res.Records, aligned.Records...)
	srep, err := netbench.DetectSpecialSizes(res, netsim.OpSend, 1024, 1024, 8193)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&text, "white-box special-size analysis: aligned/unaligned penalty = %.2f\n", srep.Penalty())
	f.Checks["detected_penalty"] = srep.Penalty()
	f.Text = text.String()
	return f, nil
}

// PitfallBreakAssumption reproduces Section III.3: assuming a single
// protocol change at 32 KB (as the prior-work reading of Figure 3 does)
// hides the additional 16 KB slope change that a neutral segmented search
// recovers.
func PitfallBreakAssumption(seed uint64) (*Figure, error) {
	f := &Figure{
		ID:     "pitfall-III.3",
		Title:  "Fixed-breakpoint assumption vs neutral segmented search (OpenMPI/Myrinet)",
		Checks: map[string]float64{},
	}
	res, err := netCampaign(netsim.MyrinetOpenMPI(), xrand.Derive(seed, "p33"), 220, 256, 65536, 3, nil)
	if err != nil {
		return nil, err
	}
	pp := res.Filter(func(r core.RawRecord) bool {
		return r.Point.Get(netbench.FactorOp) == string(netsim.OpPingPong)
	})
	xs, ys := pp.XY(netbench.FactorSize)

	assumed, err := stats.FitPiecewise(xs, ys, []float64{32768})
	if err != nil {
		return nil, err
	}
	neutral, err := stats.SelectSegmentedRelative(xs, ys, 3, 15)
	if err != nil {
		return nil, err
	}
	var text strings.Builder
	fmt.Fprintf(&text, "assumed single break at 32768: SSE=%.3g\n%s", assumed.SSE, assumed.String())
	fmt.Fprintf(&text, "neutral search: breaks=%v SSE=%.3g\n%s", neutral.Breaks, neutral.SSE, neutral.String())
	f.Checks["assumed_sse_over_neutral_sse"] = assumed.SSE / neutral.SSE
	f.Checks["neutral_break_count"] = float64(len(neutral.Breaks))
	if len(neutral.Breaks) > 0 {
		f.Checks["neutral_first_break"] = neutral.Breaks[0]
	}
	f.Text = text.String()
	return f, nil
}

// PagingFix reproduces the Section IV.4 remedy: replacing per-measurement
// malloc/free (frozen unlucky page draws) with one large arena and random
// starting offsets. Pool campaigns disagree wildly across reruns; arena
// campaigns agree, at the cost of honest within-run variability.
func PagingFix(seed uint64) (*Figure, error) {
	f := &Figure{
		ID:     "pitfall-IV.4-fix",
		Title:  "Physical address randomization: pool reuse vs arena random offsets (ARM, 24 KB)",
		Checks: map[string]float64{},
	}
	const nRuns = 6
	run := func(allocation string, run int) (median, cv float64, err error) {
		cfg := membench.Config{
			Machine:    memsim.ARMSnowball(),
			Seed:       xrand.Derive(seed, fmt.Sprintf("p44/%s/%d", allocation, run)),
			Allocation: allocation,
			PoolPages:  1024,
			ArenaBytes: 2 << 20,
		}
		res, err := memCampaign(cfg, membench.Factors(kb(24), nil, nil, []int{200}, nil), 20)
		if err != nil {
			return 0, 0, err
		}
		vals := res.Values()
		return stats.Median(vals), stats.CV(vals), nil
	}
	var text strings.Builder
	crossSeed := map[string][]float64{}
	withinCV := map[string][]float64{}
	for _, allocation := range []string{membench.AllocPool, membench.AllocArena} {
		for r := 0; r < nRuns; r++ {
			med, cv, err := run(allocation, r)
			if err != nil {
				return nil, err
			}
			crossSeed[allocation] = append(crossSeed[allocation], med)
			withinCV[allocation] = append(withinCV[allocation], cv)
		}
		fmt.Fprintf(&text, "%-8s medians across %d reruns: ", allocation, nRuns)
		for _, m := range crossSeed[allocation] {
			fmt.Fprintf(&text, "%6.0f ", m)
		}
		fmt.Fprintf(&text, "(cross-run CV %.3f, mean within-run CV %.3f)\n",
			stats.CV(crossSeed[allocation]), stats.Mean(withinCV[allocation]))
	}
	f.Checks["pool_cross_run_cv"] = stats.CV(crossSeed[membench.AllocPool])
	f.Checks["arena_cross_run_cv"] = stats.CV(crossSeed[membench.AllocArena])
	f.Checks["pool_within_run_cv"] = stats.Mean(withinCV[membench.AllocPool])
	f.Checks["arena_within_run_cv"] = stats.Mean(withinCV[membench.AllocArena])
	f.Text = text.String()
	return f, nil
}
