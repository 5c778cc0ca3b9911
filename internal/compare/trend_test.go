package compare

import (
	"bytes"
	"strings"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/suite"
)

// mkRun builds a one-campaign Run from pooled values, reusing the mk
// sample helper.
func mkRun(run, campaign, engine, key string, values []float64) Run {
	return Run{Name: run, Samples: mk(campaign, engine, key, values)}
}

// window builds an N-run window of one campaign whose run medians follow
// centers, with seeded noise so the bootstrap has something to resample.
func window(campaign, engine string, centers []float64, sigma float64) []Run {
	runs := make([]Run, len(centers))
	for i, c := range centers {
		name := "r" + string(rune('1'+i))
		runs[i] = mkRun(name, campaign, engine, "k-"+name, noisy(60, c, sigma, uint64(i+1)))
	}
	return runs
}

func oneTrend(t *testing.T, tr *Trend) CampaignTrend {
	t.Helper()
	if len(tr.Campaigns) != 1 {
		t.Fatalf("%d campaign trends, want 1", len(tr.Campaigns))
	}
	return tr.Campaigns[0]
}

func TestTrendNeedsTwoRuns(t *testing.T) {
	if _, err := TrendAcrossRuns(nil, Gate{}); err == nil {
		t.Fatal("empty run window accepted")
	}
	if _, err := TrendAcrossRuns(window("c", "membench", []float64{1000}, 5), Gate{}); err == nil {
		t.Fatal("single-run window accepted")
	}
}

func TestTrendDriftDirections(t *testing.T) {
	cases := []struct {
		name      string
		engine    string
		centers   []float64
		state     string
		monotone  string
		direction string
	}{
		// membench bandwidth: a sustained drop worsens, a sustained rise improves.
		{"bandwidth decay", "membench", []float64{1000, 950, 900}, TrendDrifting, "decreasing", "worsening"},
		{"bandwidth gain", "membench", []float64{900, 950, 1000}, TrendDrifting, "increasing", "improving"},
		// netbench duration: lower is better, so a sustained rise worsens.
		{"latency creep", "netbench", []float64{1.0, 1.1, 1.2, 1.3}, TrendDrifting, "increasing", "worsening"},
		{"latency melt", "netbench", []float64{1.3, 1.2, 1.0}, TrendDrifting, "decreasing", "improving"},
		// A bounce is not a drift, however large the first-vs-last shift.
		{"bounce", "membench", []float64{1000, 1200, 1100}, TrendStable, "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sigma := tc.centers[0] / 200
			tr, err := TrendAcrossRuns(window("c", tc.engine, tc.centers, sigma), Gate{})
			if err != nil {
				t.Fatal(err)
			}
			ct := oneTrend(t, tr)
			if ct.State != tc.state || ct.Monotone != tc.monotone || ct.Direction != tc.direction {
				t.Fatalf("state %s/%s/%s (shift %+g, CI [%g, %g]), want %s/%s/%s",
					ct.State, ct.Monotone, ct.Direction, ct.Shift, ct.CILo, ct.CIHi,
					tc.state, tc.monotone, tc.direction)
			}
			if len(ct.Points) != len(tc.centers) {
				t.Fatalf("%d trajectory points, want %d", len(ct.Points), len(tc.centers))
			}
			if tc.state == TrendDrifting && ct.RelShift == 0 {
				t.Fatal("drift with zero effect size")
			}
		})
	}
}

// TestTrendPracticalFloor: a monotone, statistically certain but tiny
// drift (0.4% over the window, degenerate CI) must stay stable — and must
// drift once the floor is lowered.
func TestTrendPracticalFloor(t *testing.T) {
	runs := []Run{
		mkRun("r1", "c", "membench", "k1", constant(40, 1000)),
		mkRun("r2", "c", "membench", "k2", constant(40, 998)),
		mkRun("r3", "c", "membench", "k3", constant(40, 996)),
	}
	tr, err := TrendAcrossRuns(runs, Gate{})
	if err != nil {
		t.Fatal(err)
	}
	if ct := oneTrend(t, tr); ct.State != TrendStable || ct.Monotone != "decreasing" {
		t.Fatalf("0.4%% drift gated: %s/%s", ct.State, ct.Monotone)
	}
	tr, err = TrendAcrossRuns(runs, Gate{MinRelShift: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if ct := oneTrend(t, tr); ct.State != TrendDrifting || ct.Direction != "worsening" {
		t.Fatalf("drift above the floor not flagged: %s/%s", ct.State, ct.Direction)
	}
	if tr.Clean() {
		t.Fatal("worsening drift reported clean")
	}
}

// TestTrendImprovingIsClean: an improving drift stays visible but does not
// fail the gate.
func TestTrendImprovingIsClean(t *testing.T) {
	tr, err := TrendAcrossRuns(window("c", "membench", []float64{900, 950, 1000}, 4), Gate{})
	if err != nil {
		t.Fatal(err)
	}
	if ct := oneTrend(t, tr); ct.Direction != "improving" {
		t.Fatalf("direction %q, want improving", ct.Direction)
	}
	if !tr.Clean() || tr.Drifting != 1 {
		t.Fatalf("improving drift: clean=%v, %s", tr.Clean(), tr.Summary())
	}
}

// TestTrendIdenticalFastPath: a campaign whose first and last runs carry
// byte-identical values takes the zero-effect fast path, whatever happened
// in between.
func TestTrendIdenticalFastPath(t *testing.T) {
	vals := noisy(30, 500, 20, 9)
	runs := []Run{
		mkRun("r1", "c", "cpubench", "k", vals),
		mkRun("r2", "c", "cpubench", "k2", noisy(30, 480, 20, 10)),
		mkRun("r3", "c", "cpubench", "k", vals),
	}
	tr, err := TrendAcrossRuns(runs, Gate{})
	if err != nil {
		t.Fatal(err)
	}
	ct := oneTrend(t, tr)
	if ct.State != TrendStable || !ct.Identical || ct.Shift != 0 {
		t.Fatalf("identical first/last: %+v", ct)
	}
}

// TestTrendMonotoneAllowsTies: a plateau inside a one-direction trajectory
// still counts as monotone.
func TestTrendMonotoneAllowsTies(t *testing.T) {
	runs := []Run{
		mkRun("r1", "c", "membench", "k1", constant(40, 1000)),
		mkRun("r2", "c", "membench", "k2", constant(40, 900)),
		mkRun("r3", "c", "membench", "k3", constant(40, 900)),
		mkRun("r4", "c", "membench", "k4", constant(40, 800)),
	}
	tr, err := TrendAcrossRuns(runs, Gate{})
	if err != nil {
		t.Fatal(err)
	}
	ct := oneTrend(t, tr)
	if ct.Monotone != "decreasing" || ct.State != TrendDrifting || ct.Direction != "worsening" {
		t.Fatalf("tied plateau broke monotone: %s/%s/%s", ct.State, ct.Monotone, ct.Direction)
	}
}

func TestTrendUnjudgedCases(t *testing.T) {
	base := window("c", "membench", []float64{1000, 950, 900}, 5)
	cases := []struct {
		name       string
		mutate     func([]Run) []Run
		wantReason string
	}{
		{"single run", func(rs []Run) []Run {
			rs[0].Samples = map[string][]Sample{}
			rs[1].Samples = map[string][]Sample{}
			return rs
		}, "present in 1 run(s)"},
		{"ambiguous run", func(rs []Run) []Run {
			s := rs[1].Samples["c"][0]
			rs[1].Samples["c"] = []Sample{s, s}
			return rs
		}, "ambiguous"},
		{"engine change", func(rs []Run) []Run {
			rs[2].Samples["c"][0].Engine = "netbench"
			return rs
		}, "engine changed"},
		{"unknown engine", func(rs []Run) []Run {
			for _, r := range rs {
				r.Samples["c"][0].Engine = "gpubench"
			}
			return rs
		}, "unknown engine"},
		{"empty records", func(rs []Run) []Run {
			rs[1].Samples["c"][0].Records = nil
			return rs
		}, "no records"},
		{"zero first median", func(rs []Run) []Run {
			rs[0].Samples["c"] = mk("c", "membench", "k0", constant(40, 0))["c"]
			return rs
		}, "median is zero"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs := tc.mutate(window("c", "membench", []float64{1000, 950, 900}, 5))
			tr, err := TrendAcrossRuns(runs, Gate{})
			if err != nil {
				t.Fatal(err)
			}
			ct := oneTrend(t, tr)
			if ct.State != TrendUnjudged {
				t.Fatalf("state %s, want unjudged", ct.State)
			}
			if !strings.Contains(ct.Reason, tc.wantReason) {
				t.Fatalf("reason %q does not mention %q", ct.Reason, tc.wantReason)
			}
			if tr.Unjudged != 1 || tr.Clean() {
				t.Fatalf("totals wrong: %s", tr.Summary())
			}
		})
	}
	_ = base
}

// TestTrendGapNarrowsWindow: a run missing the campaign shrinks that
// campaign's trajectory instead of unjudging it — histories accumulate
// campaigns over time.
func TestTrendGapNarrowsWindow(t *testing.T) {
	runs := window("c", "membench", []float64{1000, 950, 900}, 5)
	runs[1].Samples = map[string][]Sample{}
	tr, err := TrendAcrossRuns(runs, Gate{})
	if err != nil {
		t.Fatal(err)
	}
	ct := oneTrend(t, tr)
	if ct.State != TrendDrifting || len(ct.Points) != 2 {
		t.Fatalf("gapped window: %s with %d points, want drifting with 2", ct.State, len(ct.Points))
	}
	if ct.Points[0].Run != "r1" || ct.Points[1].Run != "r3" {
		t.Fatalf("points %v", ct.Points)
	}
}

// TestTrendReportDeterministicRoundTrip: the JSON report is byte-identical
// across analyses and round-trips.
func TestTrendReportDeterministicRoundTrip(t *testing.T) {
	runs := func() []Run {
		rs := window("c", "membench", []float64{1000, 950, 900}, 5)
		for k, v := range window("z", "netbench", []float64{1.0, 1.0, 1.0}, 0.01)[0].Samples {
			rs[0].Samples[k] = v
		}
		return rs
	}
	var files [][]byte
	for i := 0; i < 2; i++ {
		tr, err := TrendAcrossRuns(runs(), Gate{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		files = append(files, buf.Bytes())
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("trend reports differ across analyses:\n%s\nvs\n%s", files[0], files[1])
	}
	parsed, err := ReadTrendJSON(bytes.NewReader(files[0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Campaigns) != 2 || len(parsed.Runs) != 3 {
		t.Fatalf("round trip lost state: %s", parsed.Summary())
	}
	var text bytes.Buffer
	parsed.WriteText(&text)
	for _, want := range []string{"drifting (worsening)", "medians", "->"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, text.String())
		}
	}
}

// --- Store loaders -------------------------------------------------------

// storeEntry builds a suite cache entry carrying the given values.
func storeEntry(t *testing.T, campaign, engine string, round int, values []float64) *suite.Entry {
	t.Helper()
	res := &core.Results{}
	for i, v := range values {
		res.Records = append(res.Records, core.RawRecord{
			Seq: i, Point: doe.Point{"size": "64"}, Value: v,
		})
	}
	entry := &suite.Entry{Campaign: campaign, Engine: engine, Round: round, Seed: 1}
	entryFromResults(t, entry, res)
	return entry
}

// TestLoadStoreRunsTrend is the end-to-end store path: three pinned runs
// with a drifting campaign (overlapping on an unchanged one) load in pin
// order and the trend analysis flags exactly the drift.
func TestLoadStoreRunsTrend(t *testing.T) {
	storePath := t.TempDir() + "/history.store"
	cache, err := suite.OpenCacheStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	centers := []float64{1000, 950, 900}
	sharedKey := "k-flat"
	if err := cache.Store(sharedKey, storeEntry(t, "flat", "netbench", 0, constant(30, 2))); err != nil {
		t.Fatal(err)
	}
	st := cache.Backing()
	for i, c := range centers {
		run := "run" + string(rune('1'+i))
		key := "k-" + run
		if err := cache.Store(key, storeEntry(t, "mem", "membench", 0, noisy(60, c, 4, uint64(i+1)))); err != nil {
			t.Fatal(err)
		}
		if err := st.Pin(run, key, sharedKey); err != nil {
			t.Fatal(err)
		}
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	runs, err := LoadStoreRuns(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("%d runs, want 3", len(runs))
	}
	for i, want := range []string{"run1", "run2", "run3"} {
		if runs[i].Name != want {
			t.Fatalf("run order %v, want pin order", []string{runs[0].Name, runs[1].Name, runs[2].Name})
		}
		if len(runs[i].Samples["mem"]) != 1 || len(runs[i].Samples["flat"]) != 1 {
			t.Fatalf("run %s samples incomplete: %+v", runs[i].Name, runs[i].Samples)
		}
	}
	tr, err := TrendAcrossRuns(runs, Gate{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Drifting != 1 || tr.Stable != 1 || tr.Unjudged != 0 {
		t.Fatalf("trend totals: %s", tr.Summary())
	}
	for _, ct := range tr.Campaigns {
		switch ct.Campaign {
		case "mem":
			if ct.State != TrendDrifting || ct.Direction != "worsening" {
				t.Fatalf("mem: %s/%s, want drifting/worsening", ct.State, ct.Direction)
			}
		case "flat":
			if ct.State != TrendStable || !ct.Identical {
				t.Fatalf("flat: %s identical=%v, want stable identical", ct.State, ct.Identical)
			}
		}
	}
	if tr.Clean() {
		t.Fatal("worsening drift reported clean")
	}
}
