package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// writeSpec drops a small three-engine suite spec into dir and returns its
// path. Output paths are relative, so they land next to the spec.
func writeSpec(t *testing.T, dir string) string {
	t.Helper()
	spec := `{
  "suite": "cli-test",
  "workers": 4,
  "campaigns": [
    {"name": "mem", "engine": "membench", "seed": 7, "workers": 2,
     "config": {"machine": "snowball", "sizes": [1024, 8192], "reps": 2},
     "out": "mem.csv", "jsonl": "mem.jsonl", "env": "mem.env.json"},
    {"name": "net", "engine": "netbench", "seed": 7, "workers": 2,
     "config": {"profile": "taurus", "n": 10, "reps": 2},
     "out": "net.csv"},
    {"name": "cpu", "engine": "cpubench", "seed": 7, "workers": 2,
     "config": {"governor": "performance", "nloops": [20, 200], "reps": 2},
     "out": "cpu.csv"}
  ]
}`
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTwiceSecondRunHitsCache(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir)
	cache := filepath.Join(dir, "cache.store")

	var cold strings.Builder
	if err := run([]string{"run", "-q", "-cache-store", cache, spec}, &cold); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if strings.Contains(cold.String(), "hit") || !strings.Contains(cold.String(), "miss") {
		t.Errorf("cold run verdicts wrong:\n%s", cold.String())
	}
	mem1, err := os.ReadFile(filepath.Join(dir, "mem.csv"))
	if err != nil {
		t.Fatalf("cold run wrote no mem.csv: %v", err)
	}

	var warm strings.Builder
	if err := run([]string{"run", "-q", "-cache-store", cache, spec}, &warm); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if strings.Contains(warm.String(), "miss") {
		t.Errorf("warm run missed:\n%s", warm.String())
	}
	if !strings.Contains(warm.String(), "trials 0") {
		t.Errorf("warm run executed trials:\n%s", warm.String())
	}
	mem2, err := os.ReadFile(filepath.Join(dir, "mem.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(mem1) != string(mem2) {
		t.Errorf("warm replay not byte-identical: %d vs %d bytes", len(mem2), len(mem1))
	}
}

// TestBaselineSelfComparisonPasses: running a suite with -baseline pointed
// at its own warm cache is the all-pass self-comparison — verdicts land on
// stdout, in the verdict file and in the environment metadata, and the
// command exits clean.
func TestBaselineSelfComparisonPasses(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir)
	cache := filepath.Join(dir, "cache.store")
	if err := run([]string{"run", "-q", "-cache-store", cache, spec}, &strings.Builder{}); err != nil {
		t.Fatalf("cold run: %v", err)
	}

	verdicts := filepath.Join(dir, "verdicts.json")
	envPath := filepath.Join(dir, "suite.env.json")
	var out strings.Builder
	err := run([]string{"run", "-q", "-cache-store", cache, "-baseline", cache,
		"-verdicts", verdicts, "-env", envPath, spec}, &out)
	if err != nil {
		t.Fatalf("self-comparison gated: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "3 pass, 0 regressed") {
		t.Errorf("summary missing:\n%s", out.String())
	}
	data, err := os.ReadFile(verdicts)
	if err != nil {
		t.Fatalf("verdict file: %v", err)
	}
	if !strings.Contains(string(data), `"identical": true`) {
		t.Errorf("verdict file without identical fast path:\n%s", data)
	}
	env, err := os.ReadFile(envPath)
	if err != nil {
		t.Fatalf("env file: %v", err)
	}
	for _, want := range []string{`"compare/regressed": "0"`, `"compare/campaign/cpu/verdict": "pass"`} {
		if !strings.Contains(string(env), want) {
			t.Errorf("environment metadata missing %s:\n%s", want, env)
		}
	}
}

// TestBaselineCatchesInjectedSlowdown: editing the cpubench campaign to
// duty-cycle at 0.6 and re-running against the previous cache must fail
// the run with a regressed verdict.
func TestBaselineCatchesInjectedSlowdown(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir)
	baseCache := filepath.Join(dir, "base.store")
	if err := run([]string{"run", "-q", "-cache-store", baseCache, spec}, &strings.Builder{}); err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	src, err := os.ReadFile(spec)
	if err != nil {
		t.Fatal(err)
	}
	slowed := strings.Replace(string(src), `"governor": "performance",`,
		`"governor": "performance", "duty": 0.6,`, 1)
	if slowed == string(src) {
		t.Fatal("fixture edit did not apply")
	}
	if err := os.WriteFile(spec, []byte(slowed), 0o666); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	err = run([]string{"run", "-q", "-cache-store", filepath.Join(dir, "cand.store"),
		"-baseline", baseCache, spec}, &out)
	if err == nil || !strings.Contains(err.Error(), "1 regressed") {
		t.Fatalf("injected slowdown not gated: err=%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "shift") {
		t.Errorf("verdict lines missing:\n%s", out.String())
	}
}

func TestBaselineFlagValidation(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir)
	var out strings.Builder
	if err := run([]string{"run", "-cache-store", "", "-baseline", dir, spec}, &out); err == nil ||
		!strings.Contains(err.Error(), "-cache-store") {
		t.Fatalf("baseline without cache accepted: %v", err)
	}
	if err := run([]string{"run", "-dry-run", "-baseline", dir, spec}, &out); err == nil ||
		!strings.Contains(err.Error(), "dry run") {
		t.Fatalf("baseline dry run accepted: %v", err)
	}
	if err := run([]string{"run", "-verdicts", "v.json", spec}, &out); err == nil ||
		!strings.Contains(err.Error(), "-baseline") {
		t.Fatalf("verdicts without baseline accepted: %v", err)
	}
}

func TestDryRunReportsPlanWithoutOutputs(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir)

	var out strings.Builder
	if err := run([]string{"run", "-dry-run", "-cache-store", filepath.Join(dir, "cache.store"), spec}, &out); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	for _, want := range []string{"mem", "net", "cpu", "miss", "planned"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("dry-run output missing %q:\n%s", want, out.String())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "mem.csv")); !os.IsNotExist(err) {
		t.Errorf("dry run touched mem.csv")
	}
}

func TestListAndHash(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir)

	var list strings.Builder
	if err := run([]string{"list", spec}, &list); err != nil {
		t.Fatalf("list: %v", err)
	}
	for _, want := range []string{"cli-test", "membench", "netbench", "cpubench", "trials"} {
		if !strings.Contains(list.String(), want) {
			t.Errorf("list output missing %q:\n%s", want, list.String())
		}
	}

	var h1, h2 strings.Builder
	if err := run([]string{"hash", spec}, &h1); err != nil {
		t.Fatalf("hash: %v", err)
	}
	if err := run([]string{"hash", spec}, &h2); err != nil {
		t.Fatalf("hash again: %v", err)
	}
	if h1.String() != h2.String() {
		t.Errorf("hash not stable:\n%s\nvs\n%s", h1.String(), h2.String())
	}
	if lines := strings.Split(strings.TrimSpace(h1.String()), "\n"); len(lines) != 4 {
		t.Errorf("hash output: want spec line + 3 campaign lines, got %d:\n%s", len(lines), h1.String())
	}
}

// TestCheckedInExampleSpecStaysValid pins the repository's example suite
// (the README quickstart and the CI docs job both use it) to the parser.
func TestCheckedInExampleSpecStaysValid(t *testing.T) {
	spec := filepath.Join("..", "..", "examples", "suite", "suite.json")
	if _, err := os.Stat(spec); err != nil {
		t.Skipf("example spec not found: %v", err)
	}
	var out strings.Builder
	if err := run([]string{"run", "-dry-run", "-cache-store", filepath.Join(t.TempDir(), "cache.store"), spec}, &out); err != nil {
		t.Fatalf("dry run on example spec: %v", err)
	}
	for _, want := range []string{"mem-i7", "net-taurus", "cpu-rt"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("example plan missing %q:\n%s", want, out.String())
		}
	}
}

func TestUnknownCommandFails(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"frobnicate"}, &out); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("want unknown command error, got %v", err)
	}
	if err := run(nil, &out); err == nil || !strings.Contains(err.Error(), "missing command") {
		t.Fatalf("want missing command error, got %v", err)
	}
}

// writeAdaptiveSpec drops a small adaptive membench fixture into dir: a
// stride-16 sweep with the i7's 32 KB L1 planted between the 16 KB and
// 64 KB grid levels.
func writeAdaptiveSpec(t *testing.T, dir string) string {
	t.Helper()
	spec := `{
  "suite": "cli-adaptive",
  "workers": 4,
  "campaigns": [
    {"name": "mem-zoom", "engine": "membench", "seed": 20170529, "workers": 4,
     "config": {"machine": "i7", "governor": "performance",
                "sizes": [4096, 16384, 65536, 262144, 1048576, 4194304],
                "strides": [16], "reps": 6},
     "adaptive": {"rounds": 2, "budget": 150, "target_rel_ci": 0.02,
                  "top_points": 3, "extra_reps": 4, "zoom_per_break": 4, "min_seg": 10},
     "out": "mem-zoom.csv"}
  ]
}`
	path := filepath.Join(dir, "adaptive.json")
	if err := os.WriteFile(path, []byte(spec), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPlanPrintsAdaptiveSchedule: suite plan executes the adaptive rounds
// cache-backed, prints the zoom containment intervals and the stop reason,
// touches no output file, and replays deterministically on a warm cache.
func TestPlanPrintsAdaptiveSchedule(t *testing.T) {
	dir := t.TempDir()
	spec := writeAdaptiveSpec(t, dir)
	cache := filepath.Join(dir, "cache.store")

	var cold strings.Builder
	if err := run([]string{"plan", "-cache-store", cache, spec}, &cold); err != nil {
		t.Fatalf("cold plan: %v\n%s", err, cold.String())
	}
	for _, want := range []string{"mem-zoom (membench): adaptive", "round 1:", "round 2:", "zoom within (", "stop: max-rounds"} {
		if !strings.Contains(cold.String(), want) {
			t.Errorf("cold plan missing %q:\n%s", want, cold.String())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "mem-zoom.csv")); !os.IsNotExist(err) {
		t.Errorf("plan touched the campaign output (stat err = %v)", err)
	}

	var warm strings.Builder
	if err := run([]string{"plan", "-cache-store", cache, spec}, &warm); err != nil {
		t.Fatalf("warm plan: %v", err)
	}
	if !strings.Contains(warm.String(), "hit key") {
		t.Errorf("warm plan shows no cache hits:\n%s", warm.String())
	}
	if strings.ReplaceAll(warm.String(), "hit key", "miss key") != cold.String() {
		t.Errorf("warm schedule differs from cold beyond verdicts:\n--- warm ---\n%s--- cold ---\n%s",
			warm.String(), cold.String())
	}
}

// TestRunAdaptiveSpecEndToEnd: suite run streams the whole multi-round
// campaign into one record stream and the second run replays it from the
// cache without executing a trial.
func TestRunAdaptiveSpecEndToEnd(t *testing.T) {
	dir := t.TempDir()
	spec := writeAdaptiveSpec(t, dir)
	cache := filepath.Join(dir, "cache.store")

	var first strings.Builder
	if err := run([]string{"run", "-q", "-cache-store", cache, spec}, &first); err != nil {
		t.Fatalf("first run: %v\n%s", err, first.String())
	}
	cold, err := os.ReadFile(filepath.Join(dir, "mem-zoom.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(cold[:200]), "x_round") {
		t.Fatalf("record stream lacks the round column:\n%s", string(cold[:200]))
	}

	var second strings.Builder
	if err := run([]string{"run", "-q", "-cache-store", cache, spec}, &second); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !strings.Contains(second.String(), "hit") || !strings.Contains(second.String(), "trials 0") {
		t.Errorf("second run did not replay from cache:\n%s", second.String())
	}
	warm, err := os.ReadFile(filepath.Join(dir, "mem-zoom.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(cold) != string(warm) {
		t.Errorf("warm replay differs from cold run (%d vs %d bytes)", len(warm), len(cold))
	}

	// Self-gating an adaptive campaign must reassemble its round chain
	// into one sample and pass through the identical-records fast path —
	// not report the per-round cache entries as ambiguous.
	var gated strings.Builder
	if err := run([]string{"run", "-q", "-cache-store", cache, "-baseline", cache, spec}, &gated); err != nil {
		t.Fatalf("adaptive self-gate: %v\n%s", err, gated.String())
	}
	if !strings.Contains(gated.String(), "1 pass, 0 regressed, 0 improved, 0 incomparable") {
		t.Errorf("adaptive self-gate not clean:\n%s", gated.String())
	}
}

// TestCheckedInAdaptiveFixtureStaysValid pins the repository's adaptive
// example (the CI compare job runs it) to the parser and planner.
func TestCheckedInAdaptiveFixtureStaysValid(t *testing.T) {
	spec := filepath.Join("..", "..", "examples", "suite", "adaptive.json")
	if _, err := os.Stat(spec); err != nil {
		t.Skipf("adaptive fixture not found: %v", err)
	}
	var out strings.Builder
	if err := run([]string{"run", "-dry-run", "-cache-store", filepath.Join(t.TempDir(), "cache.store"), spec}, &out); err != nil {
		t.Fatalf("dry run on adaptive fixture: %v", err)
	}
	if !strings.Contains(out.String(), "mem-zoom") {
		t.Errorf("fixture plan missing mem-zoom:\n%s", out.String())
	}
}

var update = flag.Bool("update", false, "regenerate golden files")

// keyRE matches the 12-hex short cache keys the plan prints. The full keys
// embed the module version — the executable hash on devel builds — so they
// move on every rebuild even though the schedule itself does not; the
// golden file pins everything but the key bytes.
var keyRE = regexp.MustCompile(`key [0-9a-f]{12}`)

// TestPlanGoldenAgainstAdaptiveFixture locks the exact plan rendering for
// the checked-in adaptive fixture: round sizes, trial counts, zoom
// containment intervals and the stop line are all byte-pinned.
// Regenerate with: go test ./cmd/suite -run PlanGolden -update
func TestPlanGoldenAgainstAdaptiveFixture(t *testing.T) {
	spec := filepath.Join("..", "..", "examples", "suite", "adaptive.json")
	if _, err := os.Stat(spec); err != nil {
		t.Skipf("adaptive fixture not found: %v", err)
	}
	var out strings.Builder
	if err := run([]string{"plan", "-cache-store", filepath.Join(t.TempDir(), "cache.store"), spec}, &out); err != nil {
		t.Fatalf("plan on adaptive fixture: %v\n%s", err, out.String())
	}
	got := keyRE.ReplaceAll([]byte(out.String()), []byte("key KEY"))

	golden := filepath.Join("testdata", "plan.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o666); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", golden, len(got))
		return
	}
	want, rerr := os.ReadFile(golden)
	if rerr != nil {
		t.Fatalf("read golden (regenerate with -update): %v", rerr)
	}
	if !strings.Contains(string(want), "key KEY") || keyRE.Match(want) {
		t.Fatalf("golden file has un-normalized keys; regenerate with -update")
	}
	if string(got) != string(want) {
		t.Errorf("plan schedule differs from %s (regenerate with -update):\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}
