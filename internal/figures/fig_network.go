package figures

import (
	"context"
	"fmt"
	"strings"

	"opaquebench/internal/core"
	"opaquebench/internal/memsim"
	"opaquebench/internal/netbench"
	"opaquebench/internal/netsim"
	"opaquebench/internal/plot"
	"opaquebench/internal/runner"
	"opaquebench/internal/stats"
	"opaquebench/internal/xrand"
)

// netCampaign runs a randomized log-uniform campaign on a profile.
func netCampaign(profile *netsim.Profile, seed uint64, nSizes, minS, maxS, reps int, perturber *netsim.Perturber) (*core.Results, error) {
	d, err := netbench.Design(seed, nSizes, minS, maxS, reps, nil, true)
	if err != nil {
		return nil, err
	}
	eng, err := netbench.NewEngine(netbench.Config{Profile: profile, Seed: seed, Perturber: perturber})
	if err != nil {
		return nil, err
	}
	return runner.Sequential(context.Background(), d, eng)
}

// opSeries extracts one operation's (size, seconds) series.
func opSeries(res *core.Results, op netsim.Op, name string) plot.Series {
	sub := res.Filter(func(r core.RawRecord) bool { return r.Point.Get(netbench.FactorOp) == string(op) })
	xs, ys := sub.XY(netbench.FactorSize)
	return plot.Series{Name: name, X: xs, Y: ys}
}

// Fig03 reproduces the Figure 3 comparison: time as a function of message
// size for OpenMPI over Myrinet/GM vs raw GM, with the supervised piecewise
// fit exposing both the documented 32 KB protocol change and the subtle
// 16 KB slope change the paper says a "new look to the data" reveals.
func Fig03(seed uint64) (*Figure, error) {
	f := &Figure{
		ID:     "fig03",
		Title:  "Time vs message size for two communication libraries (Myrinet/GM)",
		Checks: map[string]float64{},
		PlotOptions: plot.Options{
			Width: 76, Height: 22, LogY: false,
			XLabel: "message size (B)", YLabel: "one-way time (s)",
		},
	}
	var text strings.Builder
	for _, pc := range []struct {
		profile *netsim.Profile
		label   string
	}{
		{netsim.MyrinetOpenMPI(), "openmpi"},
		{netsim.MyrinetGM(), "gm"},
	} {
		res, err := netCampaign(pc.profile, xrand.Derive(seed, "fig03/"+pc.label), 180, 64, 65536, 2, nil)
		if err != nil {
			return nil, err
		}
		pp := res.Filter(func(r core.RawRecord) bool {
			return r.Point.Get(netbench.FactorOp) == string(netsim.OpPingPong)
		})
		// One-way time = RTT/2, the G*s+g style curve of Figure 3.
		xs, rtts := pp.XY(netbench.FactorSize)
		ys := make([]float64, len(rtts))
		for i, v := range rtts {
			ys[i] = v / 2
		}
		f.Series = append(f.Series, plot.Series{Name: pc.label + " (G*s+g)", X: xs, Y: ys})
		f.Series = append(f.Series, opSeries(res, netsim.OpSend, pc.label+" (o)"))

		pf, err := stats.FitPiecewise(xs, ys, pc.profile.Breakpoints())
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&text, "%s one-way piecewise fit (supervised breaks %v):\n%s",
			pc.label, pc.profile.Breakpoints(), pf.String())

		auto, err := stats.SelectSegmentedRelative(xs, ys, 3, 12)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&text, "%s neutral segmented search found breaks: %v\n", pc.label, auto.Breaks)
		f.Checks[pc.label+"/auto_breaks"] = float64(len(auto.Breaks))
		if len(pf.Segments) > 1 {
			first := pf.Segments[0].Fit.Slope
			last := pf.Segments[len(pf.Segments)-1].Fit.Slope
			f.Checks[pc.label+"/slope_ratio_last_vs_first"] = last / first
		}
	}
	f.Text = text.String()
	return f, nil
}

// Fig04 reproduces the Figure 4 Taurus characterization: send overhead,
// receive overhead, and ping-pong (latency/bandwidth) with randomized
// log-uniform sizes, a neutral breakpoint search, the supervised LogGP fit,
// and the medium-size receive-variability diagnostic.
func Fig04(seed uint64) (*Figure, error) {
	profile := netsim.Taurus()
	res, err := netCampaign(profile, xrand.Derive(seed, "fig04"), 300, 16, 2<<20, 4, nil)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "fig04",
		Title:  "Taurus cluster network modeling (OpenMPI 2.0.1, TCP, 10GbE)",
		Checks: map[string]float64{},
		PlotOptions: plot.Options{
			Width: 76, Height: 22, LogX: true, LogY: true,
			XLabel: "message size (B)", YLabel: "time (s)",
		},
	}
	f.Series = []plot.Series{
		opSeries(res, netsim.OpSend, "send overhead"),
		opSeries(res, netsim.OpRecv, "recv overhead"),
		opSeries(res, netsim.OpPingPong, "ping-pong"),
	}

	var text strings.Builder
	model, err := netbench.FitLogGP(res, profile.Breakpoints())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&text, "supervised LogGP fit (analyst breakpoints %v):\n%s", profile.Breakpoints(), model.String())

	// Neutral look at the number of breakpoints on the ping-pong data.
	pp := res.Filter(func(r core.RawRecord) bool {
		return r.Point.Get(netbench.FactorOp) == string(netsim.OpPingPong)
	})
	xs, ys := pp.XY(netbench.FactorSize)
	auto, err := stats.SelectSegmentedRelative(xs, ys, 4, 20)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&text, "neutral segmented search on ping-pong: breaks=%v\n", auto.Breaks)
	f.Checks["auto_break_count"] = float64(len(auto.Breaks))
	for i, b := range auto.Breaks {
		f.Checks[fmt.Sprintf("auto_break_%d", i)] = b
	}

	// Heteroscedasticity: the detached band's recv CV vs the tails.
	cv := netbench.VariabilityBySizeDecile(res, netsim.OpRecv)
	fmt.Fprintf(&text, "recv CV by size decile: ")
	for _, v := range cv {
		fmt.Fprintf(&text, "%.3f ", v)
	}
	fmt.Fprintf(&text, "\n")
	maxMid := 0.0
	for _, v := range cv[5:9] {
		if v > maxMid {
			maxMid = v
		}
	}
	f.Checks["recv_cv_mid_max"] = maxMid
	f.Checks["recv_cv_last"] = cv[9]
	f.Checks["rendezvous_G_fit"] = model.Regimes[len(model.Regimes)-1].GapPerByte
	f.Checks["rendezvous_G_truth"] = profile.Regimes[2].GapPerByte
	f.Text = text.String()
	return f, nil
}

// Fig05 reproduces the Figure 5 CPU characteristics table from the machine
// registry.
func Fig05(uint64) (*Figure, error) {
	return &Figure{
		ID:    "fig05",
		Title: "Technical characteristics of the simulated CPUs",
		Text:  memsim.Figure5Table(),
		Checks: map[string]float64{
			"machines": 4,
		},
	}, nil
}
