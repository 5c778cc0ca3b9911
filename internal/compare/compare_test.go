package compare

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/engine"
	"opaquebench/internal/meta"
	"opaquebench/internal/suite"
)

// mk builds a one-campaign sample map with the given pooled values (no
// factors, so the piecewise probe stays out of gate-logic tests).
func mk(name, engine, key string, values []float64) map[string][]Sample {
	recs := make([]core.RawRecord, len(values))
	for i, v := range values {
		recs[i] = core.RawRecord{Seq: i, Value: v}
	}
	return map[string][]Sample{name: {{Campaign: name, Engine: engine, Key: key, Records: recs}}}
}

func constant(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func noisy(n int, center, sigma float64, seed uint64) []float64 {
	r := rand.New(rand.NewPCG(seed, seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = center + sigma*r.NormFloat64()
	}
	return out
}

func one(t *testing.T, c *Comparison) CampaignVerdict {
	t.Helper()
	if len(c.Campaigns) != 1 {
		t.Fatalf("%d verdicts, want 1", len(c.Campaigns))
	}
	return c.Campaigns[0]
}

func TestGateDirectionPerEngine(t *testing.T) {
	cases := []struct {
		name    string
		engine  string
		base    []float64
		cand    []float64
		verdict string
	}{
		// membench bandwidth: a drop regresses, a rise improves.
		{"bandwidth drop", "membench", noisy(60, 1000, 5, 1), noisy(60, 800, 5, 2), VerdictRegressed},
		{"bandwidth rise", "membench", noisy(60, 1000, 5, 1), noisy(60, 1200, 5, 2), VerdictImproved},
		// netbench duration: lower is better, so a rise regresses.
		{"latency rise", "netbench", noisy(60, 1.0, 0.01, 3), noisy(60, 1.2, 0.01, 4), VerdictRegressed},
		{"latency drop", "netbench", noisy(60, 1.0, 0.01, 3), noisy(60, 0.8, 0.01, 4), VerdictImproved},
		// cpubench effective MHz: a drop regresses.
		{"mhz drop", "cpubench", noisy(60, 2600, 10, 5), noisy(60, 2000, 10, 6), VerdictRegressed},
		// No real shift: noise alone must not gate.
		{"no shift", "membench", noisy(60, 1000, 5, 7), noisy(60, 1000, 5, 8), VerdictPass},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Compare(mk("c", tc.engine, "k1", tc.base), mk("c", tc.engine, "k2", tc.cand), Gate{})
			v := one(t, c)
			if v.Verdict != tc.verdict {
				t.Fatalf("verdict %s (shift %+g, CI [%g, %g]), want %s",
					v.Verdict, v.Shift, v.CILo, v.CIHi, tc.verdict)
			}
			if v.Verdict == VerdictRegressed && v.RelShift == 0 {
				t.Fatal("regression with zero effect size")
			}
		})
	}
}

// TestGatePracticalSignificanceFloor: a statistically certain but tiny
// shift (here 0.4% with a degenerate CI excluding zero) must not gate.
func TestGatePracticalSignificanceFloor(t *testing.T) {
	c := Compare(
		mk("c", "membench", "k1", constant(40, 1000)),
		mk("c", "membench", "k2", constant(40, 996)),
		Gate{})
	v := one(t, c)
	if v.Verdict != VerdictPass {
		t.Fatalf("0.4%% shift gated: %s (CI [%g, %g])", v.Verdict, v.CILo, v.CIHi)
	}
	if v.Shift != -4 || v.CILo != -4 || v.CIHi != -4 {
		t.Fatalf("degenerate shift mangled: %+v", v)
	}
	// The same shift clears a lowered floor.
	c = Compare(
		mk("c", "membench", "k1", constant(40, 1000)),
		mk("c", "membench", "k2", constant(40, 996)),
		Gate{MinRelShift: 0.001})
	if v := one(t, c); v.Verdict != VerdictRegressed {
		t.Fatalf("shift above the floor did not gate: %s", v.Verdict)
	}
}

func TestIdenticalValuesFastPath(t *testing.T) {
	vals := noisy(30, 500, 20, 9)
	c := Compare(mk("c", "cpubench", "k", vals), mk("c", "cpubench", "k", vals), Gate{})
	v := one(t, c)
	if v.Verdict != VerdictPass || !v.Identical {
		t.Fatalf("identical records: %+v", v)
	}
	if v.Shift != 0 || v.RelShift != 0 || v.CILo != 0 || v.CIHi != 0 {
		t.Fatalf("identical records with nonzero effect: %+v", v)
	}
}

func TestIncomparableCases(t *testing.T) {
	base := mk("c", "membench", "k1", constant(10, 1))
	cases := []struct {
		name       string
		baseline   map[string][]Sample
		candidate  map[string][]Sample
		wantReason string
	}{
		{"missing candidate", base, map[string][]Sample{}, "absent from the candidate"},
		{"missing baseline", map[string][]Sample{}, base, "absent from the baseline"},
		{"engine change", base, mk("c", "netbench", "k2", constant(10, 1)), "engine changed"},
		{"unknown engine", mk("c", "gpubench", "k1", constant(10, 1)),
			mk("c", "gpubench", "k2", constant(10, 1)), "unknown engine"},
		{"empty records", base, mk("c", "membench", "k2", nil), "no records"},
		{"ambiguous cache", map[string][]Sample{"c": {base["c"][0], base["c"][0]}}, base,
			"2 baseline cache entries"},
		// A zero baseline median makes the relative floor undefined; the
		// gate must refuse rather than silently pass a real regression.
		{"zero baseline median", mk("c", "netbench", "k1", constant(10, 0)),
			mk("c", "netbench", "k2", constant(10, 100)), "baseline median is zero"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Compare(tc.baseline, tc.candidate, Gate{})
			v := one(t, c)
			if v.Verdict != VerdictIncomparable {
				t.Fatalf("verdict %s, want incomparable", v.Verdict)
			}
			if !strings.Contains(v.Reason, tc.wantReason) {
				t.Fatalf("reason %q does not mention %q", v.Reason, tc.wantReason)
			}
			if c.Incomparable != 1 || c.Clean() {
				t.Fatalf("totals wrong: %s", c.Summary())
			}
		})
	}
}

// TestDirectionComesFromRegistry pins the registry routing of metric
// direction: an unregistered engine is incomparable with the
// direction-undefined reason even when both sides carry byte-identical
// records (the identical-records fast path must not outrank the lookup),
// while every registered engine resolves exactly the direction its
// definition declares — no per-engine knowledge lives in this package.
func TestDirectionComesFromRegistry(t *testing.T) {
	vals := constant(10, 5)
	c := Compare(mk("c", "gpubench", "k", vals), mk("c", "gpubench", "k", vals), Gate{})
	v := one(t, c)
	if v.Verdict != VerdictIncomparable {
		t.Fatalf("verdict %s, want incomparable", v.Verdict)
	}
	if want := `unknown engine "gpubench": metric direction undefined`; v.Reason != want {
		t.Fatalf("reason %q, want %q", v.Reason, want)
	}
	if v.Identical {
		t.Fatalf("identical-records fast path outranked the direction lookup: %+v", v)
	}

	for _, name := range engine.Names() {
		def, ok := engine.Lookup(name)
		if !ok {
			t.Fatalf("Names() lists %q but Lookup rejects it", name)
		}
		c := Compare(mk("c", name, "k1", vals), mk("c", name, "k2", vals), Gate{})
		v := one(t, c)
		if v.Verdict != VerdictPass {
			t.Fatalf("%s: verdict %s, want pass", name, v.Verdict)
		}
		if v.HigherIsBetter != def.HigherIsBetter() {
			t.Errorf("%s: verdict direction %v, definition declares %v",
				name, v.HigherIsBetter, def.HigherIsBetter())
		}
	}
}

// TestModeChangeFlagged: a bimodality appearing in the candidate raises the
// modes-changed flag — annotation, regardless of the location verdict.
func TestModeChangeFlagged(t *testing.T) {
	bimodal := append(noisy(30, 1000, 2, 10), noisy(10, 200, 2, 11)...)
	c := Compare(
		mk("c", "cpubench", "k1", noisy(40, 1000, 2, 12)),
		mk("c", "cpubench", "k2", bimodal),
		Gate{})
	v := one(t, c)
	if v.BaselineModes != 1 || v.CandidateModes != 2 {
		t.Fatalf("mode counts %d -> %d, want 1 -> 2", v.BaselineModes, v.CandidateModes)
	}
	if !hasFlag(v, FlagModesChanged) {
		t.Fatalf("modes-changed flag missing: %v", v.Flags)
	}
}

func hasFlag(v CampaignVerdict, flag string) bool {
	for _, f := range v.Flags {
		if f == flag {
			return true
		}
	}
	return false
}

// --- Suite integration: the acceptance-criteria fixtures -----------------

const baselineSpec = `{
  "suite": "gate",
  "workers": 4,
  "campaigns": [
    {"name": "mem", "engine": "membench", "seed": 7,
     "config": {"machine": "snowball", "sizes": [1024, 8192], "reps": 2},
     "out": "mem.csv"},
    {"name": "net", "engine": "netbench", "seed": 7,
     "config": {"profile": "taurus", "n": 12, "reps": 2},
     "out": "net.csv"},
    {"name": "cpu", "engine": "cpubench", "seed": 7,
     "config": {"governor": "performance", "nloops": [200, 2000], "reps": 3},
     "out": "cpu.csv"}
  ]
}`

// slowdownSpec is baselineSpec with one seeded, injected slowdown: the
// cpubench campaign duty-cycles at 0.6, stretching every measurement and
// cutting the effective frequency by ~40%.
var slowdownSpec = strings.Replace(baselineSpec,
	`"governor": "performance",`, `"governor": "performance", "duty": 0.6,`, 1)

// openCache opens a cache store at a fresh path, closed when the test ends.
func openCache(t *testing.T) (*suite.Cache, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cache.store")
	cache, err := suite.OpenCacheStore(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	return cache, path
}

// runInto executes the spec cold into a fresh cache store with the given
// worker count and returns the campaign samples loaded back from it.
func runInto(t *testing.T, specJSON string, workers int) map[string][]Sample {
	t.Helper()
	spec, err := suite.Parse([]byte(specJSON), "spec.json")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	for i := range spec.Campaigns {
		spec.Campaigns[i].Workers = workers
	}
	cache, path := openCache(t)
	if _, err := suite.Run(context.Background(), spec, suite.Options{
		Cache: cache, BaseDir: t.TempDir(), Workers: workers,
	}); err != nil {
		t.Fatalf("suite run: %v", err)
	}
	samples, err := LoadStore(path)
	if err != nil {
		t.Fatalf("LoadStore: %v", err)
	}
	return samples
}

// TestSelfComparisonAllPassByteIdentical is the acceptance fixture: a suite
// compared against its own cache yields zero regressions, and the verdict
// file is byte-identical at workers 1, 4 and 8.
func TestSelfComparisonAllPassByteIdentical(t *testing.T) {
	var verdictFiles [][]byte
	for _, workers := range []int{1, 4, 8} {
		samples := runInto(t, baselineSpec, workers)
		c := Compare(samples, samples, Gate{})
		if !c.Clean() || c.Pass != 3 || c.Regressed != 0 {
			t.Fatalf("workers %d: self-comparison not all-pass: %s", workers, c.Summary())
		}
		for _, v := range c.Campaigns {
			if !v.Identical || v.Shift != 0 {
				t.Fatalf("workers %d: %s not identical in self-comparison: %+v", workers, v.Campaign, v)
			}
		}
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		verdictFiles = append(verdictFiles, buf.Bytes())
	}
	for i := 1; i < len(verdictFiles); i++ {
		if !bytes.Equal(verdictFiles[0], verdictFiles[i]) {
			t.Fatalf("verdict files differ between worker counts:\n%s\nvs\n%s",
				verdictFiles[0], verdictFiles[i])
		}
	}
	// And the file round-trips.
	parsed, err := ReadJSON(bytes.NewReader(verdictFiles[0]))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Pass != 3 || len(parsed.Campaigns) != 3 {
		t.Fatalf("round trip lost verdicts: %s", parsed.Summary())
	}
}

// TestInjectedSlowdownFlaggedRegressed is the other acceptance fixture: a
// seeded duty-cycle shift in the cpubench campaign must be flagged as
// regressed with a nonzero effect size, while the untouched campaigns
// replay identically and pass.
func TestInjectedSlowdownFlaggedRegressed(t *testing.T) {
	baseline := runInto(t, baselineSpec, 4)
	candidate := runInto(t, slowdownSpec, 4)
	c := Compare(baseline, candidate, Gate{})
	if c.Regressed != 1 || c.Pass != 2 || c.Incomparable != 0 {
		t.Fatalf("verdict totals: %s", c.Summary())
	}
	var cpu CampaignVerdict
	for _, v := range c.Campaigns {
		switch v.Campaign {
		case "cpu":
			cpu = v
		default:
			if v.Verdict != VerdictPass || !v.Identical {
				t.Errorf("%s: verdict %s identical=%v, want identical pass", v.Campaign, v.Verdict, v.Identical)
			}
		}
	}
	if cpu.Verdict != VerdictRegressed {
		t.Fatalf("cpu verdict %s (shift %+g, CI [%g, %g]), want regressed",
			cpu.Verdict, cpu.Shift, cpu.CILo, cpu.CIHi)
	}
	if cpu.Shift >= 0 || cpu.RelShift >= -0.1 {
		t.Fatalf("cpu effect size too small for a 0.6 duty cycle: shift %+g rel %+g", cpu.Shift, cpu.RelShift)
	}
	if cpu.CIHi >= 0 {
		t.Fatalf("cpu CI does not exclude zero: [%g, %g]", cpu.CILo, cpu.CIHi)
	}
	if cpu.BaselineKey == cpu.CandidateKey {
		t.Fatal("config edit did not move the cache key")
	}

	// The environment stamp and the markdown report both carry the verdict.
	env := meta.New()
	c.Stamp(env)
	if env.Get("compare/campaign/cpu/verdict") != VerdictRegressed || env.Get("compare/regressed") != "1" {
		t.Fatalf("env stamp wrong:\n%s", env.String())
	}
	md := c.Markdown()
	for _, want := range []string{"**regressed**", "cpu", "3 campaigns", "CI"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestLoadStoreMissing(t *testing.T) {
	if _, err := LoadStore(filepath.Join(t.TempDir(), "missing.store")); err == nil {
		t.Fatal("missing baseline store accepted")
	}
}

// TestAdaptiveRoundChainLoadsAsOneSample: an adaptive campaign is cached
// one entry per round; LoadStore must reassemble the chain into a
// single sample (records concatenated in round order, keys joined) rather
// than reporting an ambiguous cache — and a self-comparison of such a
// cache must pass through the identical-records fast path.
func TestAdaptiveRoundChainLoadsAsOneSample(t *testing.T) {
	cache, path := openCache(t)
	rounds := []struct {
		key    string
		round  int
		values []float64
	}{
		{"k-round1", 1, []float64{10, 11, 12}},
		{"k-round2", 2, []float64{20, 21}},
	}
	for _, r := range rounds {
		res := &core.Results{}
		for i, v := range r.values {
			res.Records = append(res.Records, core.RawRecord{
				Seq: i, Point: doe.Point{"size": "64"}, Value: v,
			})
		}
		entry := &suite.Entry{Campaign: "zoom", Engine: "membench", Round: r.round, Seed: 1}
		entryFromResults(t, entry, res)
		if err := cache.Store(r.key, entry); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := LoadStore(path)
	if err != nil {
		t.Fatalf("LoadStore: %v", err)
	}
	samples := loaded["zoom"]
	if len(samples) != 1 {
		t.Fatalf("round chain loaded as %d samples, want 1", len(samples))
	}
	s := samples[0]
	if s.Key != "k-round1+k-round2" {
		t.Errorf("merged key %q", s.Key)
	}
	want := []float64{10, 11, 12, 20, 21}
	got := s.Values()
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged values %v, want %v (round order)", got, want)
		}
	}
	cmp := Compare(loaded, loaded, Gate{})
	if cmp.Pass != 1 || !cmp.Clean() {
		t.Errorf("adaptive self-comparison: %s", cmp.Summary())
	}
	if !cmp.Campaigns[0].Identical {
		t.Error("self-comparison missed the identical-records fast path")
	}
}

// entryFromResults fills entry.Records through the cache's JSON schema —
// the record slice's element type is unexported, so tests outside
// internal/suite construct entries the way the cache files do.
func entryFromResults(t *testing.T, entry *suite.Entry, res *core.Results) {
	t.Helper()
	recs := make([]map[string]any, 0, len(res.Records))
	for _, r := range res.Records {
		point := map[string]string{}
		for k, v := range r.Point {
			point[k] = string(v)
		}
		recs = append(recs, map[string]any{
			"seq": r.Seq, "rep": r.Rep, "value": r.Value,
			"seconds": r.Seconds, "at": r.At, "point": point,
		})
	}
	blob, err := json.Marshal(map[string]any{"records": recs})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, entry); err != nil {
		t.Fatal(err)
	}
}

// TestStaticSeedEntryUpgradesToRoundChain: a campaign run static first
// stores its entry without a round index; when the same campaign later
// runs adaptively, the seed round hits that entry by content address and
// must refresh the round index in place — otherwise the cache holds a
// {0, 2} group that can never reassemble and every baseline comparison
// of the campaign is spuriously ambiguous.
func TestStaticSeedEntryUpgradesToRoundChain(t *testing.T) {
	const common = `{"name": "mem-zoom", "engine": "membench", "seed": 20170529, "workers": 2,
     "config": {"machine": "i7", "governor": "performance",
                "sizes": [4096, 16384, 65536, 262144, 1048576, 4194304],
                "strides": [16], "reps": 6},%s
     "out": "mem-zoom.csv"}`
	mkSpec := func(t *testing.T, extra string) *suite.Spec {
		t.Helper()
		src := `{"suite": "upgrade", "workers": 2, "campaigns": [` + strings.Replace(common, "%s", extra, 1) + `]}`
		spec, err := suite.Parse([]byte(src), "spec.json")
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		return spec
	}
	cache, path := openCache(t)
	if _, err := suite.Run(context.Background(), mkSpec(t, ""), suite.Options{
		Cache: cache, BaseDir: t.TempDir(),
	}); err != nil {
		t.Fatalf("static run: %v", err)
	}
	adaptive := `
     "adaptive": {"rounds": 2, "budget": 150, "target_rel_ci": 0.02,
                  "top_points": 3, "extra_reps": 4, "zoom_per_break": 4, "min_seg": 10},`
	res, err := suite.Run(context.Background(), mkSpec(t, adaptive), suite.Options{
		Cache: cache, BaseDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	if rounds := res.Campaigns[0].Rounds; len(rounds) != 2 || !rounds[0].Hit {
		t.Fatalf("adaptive run: %d rounds, seed hit=%v", len(rounds), rounds[0].Hit)
	}
	loaded, err := LoadStore(path)
	if err != nil {
		t.Fatalf("LoadStore: %v", err)
	}
	if n := len(loaded["mem-zoom"]); n != 1 {
		t.Fatalf("cache loaded as %d samples, want 1 reassembled chain", n)
	}
	cmp := Compare(loaded, loaded, Gate{})
	if !cmp.Clean() || cmp.Pass != 1 {
		t.Errorf("self-comparison after upgrade: %s", cmp.Summary())
	}
}
