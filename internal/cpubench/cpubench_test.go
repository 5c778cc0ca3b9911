package cpubench

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"opaquebench/internal/cpusim"
	"opaquebench/internal/doe"
	"opaquebench/internal/ossim"
	"opaquebench/internal/runner"
	"opaquebench/internal/stats"
)

func quietConfig() Config {
	return Config{Seed: 1, NoiseSigma: -1}
}

func trial(seq, nloops, loopcycles int) doe.Trial {
	return doe.Trial{
		Seq: seq,
		Point: doe.Point{
			FactorNLoops:     doe.Level(strconv.Itoa(nloops)),
			FactorLoopCycles: doe.Level(strconv.Itoa(loopcycles)),
		},
	}
}

func TestTableByName(t *testing.T) {
	for _, name := range []string{"i7", "snowball", "opteron", "p4"} {
		tab, err := TableByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := TableByName("cray"); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestConfigRejectsBadTable(t *testing.T) {
	cfg := quietConfig()
	cfg.Table = cpusim.FreqTable{2e9, 1e9}
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("descending table accepted")
	}
}

func TestParseParams(t *testing.T) {
	cases := []struct {
		name    string
		point   doe.Point
		want    Params
		wantErr bool
	}{
		{"defaults", doe.Point{}, Params{NLoops: 100, LoopCycles: 100_000, Duty: 1}, false},
		{"explicit", doe.Point{FactorNLoops: "20", FactorLoopCycles: "5000", FactorDuty: "0.5"},
			Params{NLoops: 20, LoopCycles: 5000, Duty: 0.5}, false},
		{"zero nloops", doe.Point{FactorNLoops: "0"}, Params{}, true},
		{"zero loopcycles", doe.Point{FactorLoopCycles: "0"}, Params{}, true},
		{"duty zero", doe.Point{FactorDuty: "0"}, Params{}, true},
		{"duty above one", doe.Point{FactorDuty: "1.5"}, Params{}, true},
		{"unparsable nloops", doe.Point{FactorNLoops: "many"}, Params{}, true},
		{"unparsable duty", doe.Point{FactorDuty: "half"}, Params{}, true},
	}
	for _, tc := range cases {
		got, err := ParseParams(tc.point)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("%s: no error", tc.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Fatalf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestPerformanceGovernorHitsMaxFrequency(t *testing.T) {
	eng, err := NewEngine(quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := eng.Execute(trial(0, 100, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rec.Value-3400) > 1e-6 {
		t.Fatalf("effective MHz = %v, want 3400 under performance", rec.Value)
	}
	if rec.Extra["freq_start_hz"] != "3400000000" {
		t.Fatalf("freq_start_hz = %q", rec.Extra["freq_start_hz"])
	}
}

func TestPowersaveGovernorHitsMinFrequency(t *testing.T) {
	cfg := quietConfig()
	cfg.Governor = cpusim.Powersave{}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := eng.Execute(trial(0, 100, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rec.Value-1600) > 1e-6 {
		t.Fatalf("effective MHz = %v, want 1600 under powersave", rec.Value)
	}
}

func TestDutyCyclingStretchesElapsed(t *testing.T) {
	solid, err := NewEngine(quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	full, err := solid.Execute(trial(0, 100, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	halfEng, err := NewEngine(quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := trial(0, 100, 100_000)
	tr.Point[FactorDuty] = "0.5"
	half, err := halfEng.Execute(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := half.Seconds / full.Seconds; math.Abs(ratio-2) > 0.01 {
		t.Fatalf("duty 0.5 elapsed ratio = %v, want ~2", ratio)
	}
	if ratio := full.Value / half.Value; math.Abs(ratio-2) > 0.01 {
		t.Fatalf("duty 0.5 effective-MHz ratio = %v, want ~2", ratio)
	}
}

func TestOndemandShortTrappedLongRamped(t *testing.T) {
	cfg := quietConfig()
	cfg.Governor = cpusim.Ondemand{}
	cfg.GapSec = 0.03
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// ~1.25 ms of work at min frequency: completes inside one sampling
	// window, never triggering a ramp.
	short, err := eng.Execute(trial(0, 20, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	// ~1.25 s of work: ramps to max almost immediately.
	long, err := eng.Execute(trial(1, 20000, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	if short.Value > 1700 {
		t.Fatalf("short workload effective MHz = %v, want trapped near 1600", short.Value)
	}
	if long.Value < 3000 {
		t.Fatalf("long workload effective MHz = %v, want ramped near 3400", long.Value)
	}
}

// TestGovernorTransitionPitfallDetected runs the Figure 10 scenario as a
// campaign: the same per-cycle work, at lengths on both sides of the
// governor sampling period, under ondemand. Short workloads complete inside
// one window at the idle frequency; long ones ramp to the maximum. The
// offline stats detectors must flag the resulting bimodality — the
// diagnosis that mean/variance reporting "completely hides" — while a
// performance-governor control campaign shows a single mode.
func TestGovernorTransitionPitfallDetected(t *testing.T) {
	campaign := func(gov cpusim.Governor) stats.ModeSplit {
		cfg := Config{Seed: 9, Governor: gov, GapSec: 0.03}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		design, err := LadderDesign(9, []int{20, 20000}, 30)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.Sequential(context.Background(), design, eng)
		if err != nil {
			t.Fatal(err)
		}
		split, err := stats.SplitModes(res.Values())
		if err != nil {
			t.Fatal(err)
		}
		return split
	}
	pitfall := campaign(cpusim.Ondemand{})
	if !pitfall.Bimodal(0.2, 2) {
		t.Fatalf("governor transition not flagged as bimodal: %+v", pitfall)
	}
	// The mode ratio approaches the frequency table's max/min ratio.
	if r := pitfall.Ratio(); r < 1.8 || r > 2.4 {
		t.Fatalf("mode ratio = %v, want ~2.1 (3.4 GHz / 1.6 GHz)", r)
	}
	control := campaign(cpusim.Performance{})
	if r := control.Ratio(); r > 1.1 {
		t.Fatalf("performance control shows mode ratio %v, want ~1", r)
	}
}

// TestRTPolicyCreatesSlowMode reproduces the Figure 11 mechanism on the CPU
// engine: under the real-time policy an external daemon co-scheduled on the
// pinned core steals a fixed share, producing a second mode ~5x slower.
func TestRTPolicyCreatesSlowMode(t *testing.T) {
	cfg := quietConfig()
	cfg.Sched = ossim.Config{Policy: ossim.PolicyRT, DaemonPeriodSec: 0.5}
	cfg.GapSec = 0.01
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	design, err := doe.FullFactorial(Factors([]int{100}, nil, nil),
		doe.Options{Replicates: 300, Seed: 4, Randomize: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Sequential(context.Background(), design, eng)
	if err != nil {
		t.Fatal(err)
	}
	slowed := 0
	for _, rec := range res.Records {
		if rec.Extra["slowdown"] != "1" {
			slowed++
		}
	}
	if slowed == 0 {
		t.Fatal("no measurement hit a daemon window")
	}
	split, err := stats.SplitModes(res.Values())
	if err != nil {
		t.Fatal(err)
	}
	if r := split.Ratio(); r < 3 || r > 7 {
		t.Fatalf("RT mode ratio = %v, want ~5 (RTShare 0.2)", r)
	}
}

// TestUnpinnedInflatesVariance pins the pitfall the factory refuses to
// shard: migration penalties of an unpinned run add dispersion that a
// pinned run does not have.
func TestUnpinnedInflatesVariance(t *testing.T) {
	run := func(unpinned bool) []float64 {
		cfg := quietConfig()
		cfg.Sched = ossim.Config{Unpinned: unpinned}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		design, err := doe.FullFactorial(Factors([]int{100}, nil, nil),
			doe.Options{Replicates: 200, Seed: 12, Randomize: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.Sequential(context.Background(), design, eng)
		if err != nil {
			t.Fatal(err)
		}
		return res.Values()
	}
	pinnedCV := stats.CV(run(false))
	unpinnedCV := stats.CV(run(true))
	if unpinnedCV <= pinnedCV {
		t.Fatalf("unpinned CV %v should exceed pinned CV %v", unpinnedCV, pinnedCV)
	}
}

func TestEnvironmentMetadata(t *testing.T) {
	cfg := quietConfig()
	cfg.Governor = cpusim.Ondemand{}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := eng.Environment()
	if env.Get("governor") != "ondemand" {
		t.Fatalf("governor = %q", env.Get("governor"))
	}
	if env.Get("freq/max_hz") != "3400000000" {
		t.Fatalf("freq/max_hz = %q", env.Get("freq/max_hz"))
	}
	if !strings.Contains(env.Get("sched"), "pinned=true") {
		t.Fatalf("sched = %q", env.Get("sched"))
	}
	if env.Get("mode") != "" {
		t.Fatalf("sequential engine claims mode %q", env.Get("mode"))
	}
}

func TestLadderDesignShape(t *testing.T) {
	d, err := LadderDesign(3, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 4*5 {
		t.Fatalf("size = %d, want 20", d.Size())
	}
	if !d.Randomized {
		t.Fatal("ladder design not randomized")
	}
	levels := map[string]bool{}
	for _, tr := range d.Trials {
		levels[tr.Point.Get(FactorNLoops)] = true
	}
	if len(levels) != 4 {
		t.Fatalf("nloops levels = %v, want 4", levels)
	}
}
