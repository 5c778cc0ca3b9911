package netbench

import (
	"context"
	"math"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/netsim"
	"opaquebench/internal/runner"
)

func campaign(t *testing.T, cfg Config, seed uint64, nSizes, minS, maxS, reps int, randomize bool) *core.Results {
	t.Helper()
	d, err := Design(seed, nSizes, minS, maxS, reps, nil, randomize)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Sequential(context.Background(), d, e)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewEngineRequiresProfile(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Fatal("nil profile accepted")
	}
}

func TestParseOp(t *testing.T) {
	for _, good := range []string{"send", "recv", "pingpong"} {
		if _, err := ParseOp(good); err != nil {
			t.Fatalf("%s rejected: %v", good, err)
		}
	}
	if _, err := ParseOp("bcast"); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestDesignShape(t *testing.T) {
	d, err := Design(1, 50, 16, 1<<20, 3, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	// 50 sizes x 3 ops x 3 reps (duplicate random sizes may collapse levels).
	if d.Size() < 50*3*3/2 {
		t.Fatalf("design too small: %d", d.Size())
	}
	if !d.Randomized {
		t.Fatal("not randomized")
	}
}

func TestPowerOfTwoDesignOrdered(t *testing.T) {
	d, err := PowerOfTwoDesign(64, 1024, 2, []netsim.Op{netsim.OpPingPong})
	if err != nil {
		t.Fatal(err)
	}
	if d.Randomized {
		t.Fatal("pow2 design should stay ordered")
	}
	if d.Size() != 5*2 {
		t.Fatalf("size = %d", d.Size())
	}
}

func TestCampaignRecordsAllOps(t *testing.T) {
	res := campaign(t, Config{Profile: netsim.Taurus(), Seed: 2}, 2, 30, 16, 1<<20, 2, true)
	byOp := res.GroupBy(FactorOp)
	for _, op := range []string{"send", "recv", "pingpong"} {
		if len(byOp[op]) == 0 {
			t.Fatalf("no %s records", op)
		}
	}
}

func TestFitLogGPRecoversPlantedParameters(t *testing.T) {
	// The ground truth is the Taurus profile; the white-box analysis with
	// the true breakpoints must recover G and L within tolerance.
	profile := netsim.Taurus()
	res := campaign(t, Config{Profile: profile, Seed: 3}, 3, 250, 16, 1<<21, 4, true)
	model, err := FitLogGP(res, profile.Breakpoints())
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Regimes) != 3 {
		t.Fatalf("regimes = %d", len(model.Regimes))
	}
	// Check the rendezvous regime (best conditioned: widest size range).
	truth := profile.Regimes[2]
	got := model.Regimes[2]
	if relErr(got.GapPerByte, truth.GapPerByte) > 0.25 {
		t.Fatalf("G = %v, want ~%v", got.GapPerByte, truth.GapPerByte)
	}
	if got.BandwidthMBps <= 0 {
		t.Fatalf("bandwidth = %v", got.BandwidthMBps)
	}
	// Send overhead slope of the eager regime.
	if relErr(model.Regimes[0].SendPerByte, profile.Regimes[0].SendPerByte) > 0.5 {
		t.Fatalf("eager send slope = %v, want ~%v", model.Regimes[0].SendPerByte, profile.Regimes[0].SendPerByte)
	}
	if model.String() == "" {
		t.Fatal("empty model rendering")
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func TestFitLogGPLatencyPositive(t *testing.T) {
	profile := netsim.MyrinetGM()
	res := campaign(t, Config{Profile: profile, Seed: 4}, 4, 150, 16, 1<<20, 3, true)
	model, err := FitLogGP(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Regimes) != 1 {
		t.Fatalf("regimes = %d", len(model.Regimes))
	}
	if model.Regimes[0].Latency <= 0 {
		t.Fatalf("latency = %v", model.Regimes[0].Latency)
	}
	if relErr(model.Regimes[0].Latency, profile.Regimes[0].Latency) > 0.5 {
		t.Fatalf("latency = %v, want ~%v", model.Regimes[0].Latency, profile.Regimes[0].Latency)
	}
}

func TestFitLogGPMissingOp(t *testing.T) {
	d, err := Design(5, 20, 16, 65536, 1, []netsim.Op{netsim.OpPingPong}, true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{Profile: netsim.Taurus(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Sequential(context.Background(), d, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FitLogGP(res, nil); err == nil {
		t.Fatal("want error when send/recv records are missing")
	}
}

func TestDetectSpecialSizes(t *testing.T) {
	// The planted Taurus quirk: 1024-aligned eager sends are ~25% slower.
	res := campaign(t, Config{Profile: netsim.Taurus(), Seed: 6}, 6, 400, 512, 12000, 4, true)

	// Log-uniform sampling rarely hits exact multiples of 1024, so add a
	// few aligned probes the way an analyst would.
	e, err := NewEngine(Config{Profile: netsim.Taurus(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	d, err := PowerOfTwoDesign(1024, 8192, 20, []netsim.Op{netsim.OpSend})
	if err != nil {
		t.Fatal(err)
	}
	aligned, err := runner.Sequential(context.Background(), d, e)
	if err != nil {
		t.Fatal(err)
	}
	res.Records = append(res.Records, aligned.Records...)

	rep, err := DetectSpecialSizes(res, netsim.OpSend, 1024, 1024, 12000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Penalty() < 1.1 {
		t.Fatalf("penalty = %v, want > 1.1 (planted 1.25)", rep.Penalty())
	}
}

func TestDetectSpecialSizesNeedsBothSides(t *testing.T) {
	// A pure power-of-two campaign cannot expose the quirk: every size is
	// aligned, so the comparison is impossible (pitfall III.2).
	e, err := NewEngine(Config{Profile: netsim.Taurus(), Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	d, err := PowerOfTwoDesign(1024, 8192, 10, []netsim.Op{netsim.OpSend})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Sequential(context.Background(), d, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DetectSpecialSizes(res, netsim.OpSend, 1024, 1024, 12000); err == nil {
		t.Fatal("pow2-only campaign should fail the special-size analysis")
	}
}

func TestVariabilityBySizeDecile(t *testing.T) {
	res := campaign(t, Config{Profile: netsim.Taurus(), Seed: 9}, 9, 300, 64, 1<<21, 4, true)
	cv := VariabilityBySizeDecile(res, netsim.OpRecv)
	if len(cv) != 10 {
		t.Fatalf("deciles = %d", len(cv))
	}
	// The detached band (12 KB - 64 KB) must be more variable than the
	// largest sizes. With log-uniform sizes over [64, 2M] the detached band
	// sits roughly in deciles 7-8 and rendezvous in 9-10.
	maxMid := math.Max(cv[6], cv[7])
	if maxMid <= cv[9] {
		t.Fatalf("medium-size variability should dominate: mid=%v last=%v (all=%v)", maxMid, cv[9], cv)
	}
}

func TestEnvironmentCapture(t *testing.T) {
	e, err := NewEngine(Config{Profile: netsim.Taurus(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	env := e.Environment()
	if env.Get("network") != "taurus-openmpi-tcp-10g" {
		t.Fatalf("network = %q", env.Get("network"))
	}
	if env.Get("perturbed") != "false" {
		t.Fatalf("perturbed = %q", env.Get("perturbed"))
	}
}

func TestExecuteBadTrials(t *testing.T) {
	e, err := NewEngine(Config{Profile: netsim.Taurus(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(doe.Trial{Point: doe.Point{"size": "abc"}}); err == nil {
		t.Fatal("bad size accepted")
	}
	if _, err := e.Execute(doe.Trial{Point: doe.Point{"size": "1024", "op": "bcast"}}); err == nil {
		t.Fatal("bad op accepted")
	}
}
