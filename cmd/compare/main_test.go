package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opaquebench/internal/suite"
)

const specTemplate = `{
  "suite": "cli-gate",
  "workers": 4,
  "campaigns": [
    {"name": "mem", "engine": "membench", "seed": 7,
     "config": {"machine": "snowball", "sizes": [1024, 8192], "reps": 2},
     "out": "mem.csv"},
    {"name": "cpu", "engine": "cpubench", "seed": 7,
     "config": {"governor": "performance", %s"nloops": [200, 2000], "reps": 3},
     "out": "cpu.csv"}
  ]
}`

// runSuite executes a spec cold into a fresh cache store and returns its
// path.
func runSuite(t *testing.T, dutyField string) string {
	t.Helper()
	src := strings.Replace(specTemplate, "%s", dutyField, 1)
	spec, err := suite.Parse([]byte(src), "spec.json")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	path := filepath.Join(t.TempDir(), "cache.store")
	cache, err := suite.OpenCacheStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	if _, err := suite.Run(context.Background(), spec, suite.Options{
		Cache: cache, BaseDir: t.TempDir(),
	}); err != nil {
		t.Fatalf("suite run: %v", err)
	}
	return path
}

func TestSelfComparisonExitsClean(t *testing.T) {
	cache := runSuite(t, "")
	dir := t.TempDir()
	verdicts := filepath.Join(dir, "verdicts.json")
	md := filepath.Join(dir, "report.md")

	var out strings.Builder
	if err := run([]string{"-o", verdicts, "-md", md, cache, cache}, &out); err != nil {
		t.Fatalf("self-comparison gated: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "2 pass, 0 regressed") {
		t.Errorf("summary wrong:\n%s", out.String())
	}
	data, err := os.ReadFile(verdicts)
	if err != nil {
		t.Fatalf("verdict file not written: %v", err)
	}
	for _, want := range []string{`"verdict": "pass"`, `"identical": true`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("verdict file missing %s:\n%s", want, data)
		}
	}
	report, err := os.ReadFile(md)
	if err != nil {
		t.Fatalf("markdown report not written: %v", err)
	}
	if !strings.Contains(string(report), "| mem |") {
		t.Errorf("markdown report missing table row:\n%s", report)
	}
}

func TestRegressionGatesWithNonzeroExit(t *testing.T) {
	baseline := runSuite(t, "")
	candidate := runSuite(t, `"duty": 0.6, `)

	var out strings.Builder
	err := run([]string{baseline, candidate}, &out)
	if err == nil || !strings.Contains(err.Error(), "1 regressed") {
		t.Fatalf("regression did not gate: err=%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "shift") {
		t.Errorf("verdict lines missing:\n%s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"onlyone"}, &out); err == nil || !strings.Contains(err.Error(), "two result-store") {
		t.Fatalf("single argument accepted: %v", err)
	}
	if err := run([]string{"/nonexistent/a", "/nonexistent/b"}, &out); err == nil {
		t.Fatal("missing stores accepted")
	}
}

// TestLegacyDirectoryNamesImport: a legacy cache directory where a store
// file belongs fails with an error naming the import command, on every
// path that opens a cache store.
func TestLegacyDirectoryNamesImport(t *testing.T) {
	legacy := filepath.Join("testdata", "trend", "run1")
	store := runSuite(t, "")
	for _, tc := range []struct {
		name string
		open func() error
	}{
		{"OpenCacheStore", func() error {
			c, err := suite.OpenCacheStore(legacy)
			if err == nil {
				c.Close()
			}
			return err
		}},
		{"ReadCacheStore", func() error {
			c, err := suite.ReadCacheStore(legacy)
			if err == nil {
				c.Close()
			}
			return err
		}},
		{"compare baseline", func() error { return run([]string{"-q", legacy, store}, io.Discard) }},
		{"compare candidate", func() error { return run([]string{"-q", store, legacy}, io.Discard) }},
		{"compare -trend", func() error { return run([]string{"-trend", "-q", legacy}, io.Discard) }},
	} {
		err := tc.open()
		if err == nil || !strings.Contains(err.Error(), "suite store import <store> "+legacy) {
			t.Errorf("%s: err = %v, want one naming suite store import", tc.name, err)
		}
	}
}

var update = flag.Bool("update", false, "regenerate golden files")

// TestGoldenMarkdownComparison pins the -md comparison report byte for
// byte: a deterministic baseline suite against a duty-0.6 candidate whose
// cpubench campaign regresses. Everything in the report — medians, shifts,
// bootstrap CIs — derives from fixed seeds, so the bytes are stable.
// Regenerate with: go test ./cmd/compare -run Golden -update
func TestGoldenMarkdownComparison(t *testing.T) {
	baseline := runSuite(t, "")
	candidate := runSuite(t, `"duty": 0.6, `)
	mdPath := filepath.Join(t.TempDir(), "compare.md")
	var out strings.Builder
	err := run([]string{"-q", "-md", mdPath, baseline, candidate}, &out)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("want regression gate failure, got %v", err)
	}
	got, rerr := os.ReadFile(mdPath)
	if rerr != nil {
		t.Fatal(rerr)
	}
	golden := filepath.Join("testdata", "compare.md.golden")
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
	if string(got) != string(want) {
		t.Errorf("markdown comparison differs from %s (regenerate with -update):\n--- got ---\n%s", golden, got)
	}
}

// --- Trend mode ----------------------------------------------------------

// The trend fixture is three checked-in legacy cache directories under
// testdata/trend/run{1,2,3}: a "cpu" campaign whose median decays run over
// run (a worsening drift on a higher-is-better metric) and a "mem"
// campaign cached byte-identically in every run. Keys are fixed strings —
// not live cache hashes, which move with the build — so the imported
// store, and with it the golden report, is stable. Regenerate fixture and
// golden together with: go test ./cmd/compare -run GoldenTrend -update

// goldenRecord and goldenEntry mirror the cache entry JSON schema.
type goldenRecord struct {
	Seq     int               `json:"seq"`
	Rep     int               `json:"rep"`
	Value   float64           `json:"value"`
	Seconds float64           `json:"seconds"`
	At      float64           `json:"at"`
	Point   map[string]string `json:"point,omitempty"`
}

type goldenEntry struct {
	Campaign string         `json:"campaign"`
	Engine   string         `json:"engine"`
	Seed     uint64         `json:"seed"`
	Env      any            `json:"env"`
	Records  []goldenRecord `json:"records"`
}

// writeTrendFixture regenerates the three run directories. All randomness
// is PCG-seeded, so regeneration is byte-stable.
func writeTrendFixture(t *testing.T, root string) {
	t.Helper()
	mem := trendEntry("mem", "membench", 900, 5, 30, 77)
	for i, center := range []float64{2600, 2450, 2300} {
		dir := filepath.Join(root, "run"+string(rune('1'+i)))
		if err := os.MkdirAll(dir, 0o777); err != nil {
			t.Fatal(err)
		}
		cpu := trendEntry("cpu", "cpubench", center, 12, 40, uint64(i+1))
		for key, e := range map[string]*goldenEntry{
			"cpu-run" + string(rune('1'+i)): cpu,
			"mem-shared":                    mem, // identical bytes in every run
		} {
			data, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o666); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func trendEntry(campaign, engine string, center, sigma float64, n int, seed uint64) *goldenEntry {
	r := rand.New(rand.NewPCG(seed, seed))
	e := &goldenEntry{Campaign: campaign, Engine: engine, Seed: seed}
	for i := 0; i < n; i++ {
		e.Records = append(e.Records, goldenRecord{
			Seq: i, Value: center + sigma*r.NormFloat64(), At: float64(i),
			Point: map[string]string{"nloops": "200"},
		})
	}
	return e
}

// importTrendFixture builds a store from the fixture's runs, pinning each
// in order, and returns the store path.
func importTrendFixture(t *testing.T, fixture string) string {
	t.Helper()
	storePath := filepath.Join(t.TempDir(), "history.store")
	cache, err := suite.OpenCacheStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Backing()
	for _, run := range []string{"run1", "run2", "run3"} {
		keys, err := suite.ImportDirToStore(filepath.Join(fixture, run), st)
		if err != nil {
			t.Fatalf("import %s: %v", run, err)
		}
		if err := st.Pin(run, keys...); err != nil {
			t.Fatal(err)
		}
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	return storePath
}

// TestGoldenTrendReport is the acceptance fixture: -trend over three
// imported runs emits a byte-stable report flagging exactly the decaying
// campaign, and gates with a nonzero exit.
func TestGoldenTrendReport(t *testing.T) {
	fixture := filepath.Join("testdata", "trend")
	if *update {
		writeTrendFixture(t, fixture)
	}
	storePath := importTrendFixture(t, fixture)

	outPath := filepath.Join(t.TempDir(), "trend.json")
	var out strings.Builder
	err := run([]string{"-trend", "-o", outPath, storePath}, &out)
	if err == nil || !strings.Contains(err.Error(), "1 worsening") {
		t.Fatalf("worsening drift did not gate: err=%v\n%s", err, out.String())
	}
	for _, want := range []string{"drifting (worsening)", "identical records across 3 runs", "1 drifting, 1 stable, 0 unjudged"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("trend output missing %q:\n%s", want, out.String())
		}
	}
	got, rerr := os.ReadFile(outPath)
	if rerr != nil {
		t.Fatal(rerr)
	}
	golden := filepath.Join("testdata", "trend.json.golden")
	if *update {
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
	if string(got) != string(want) {
		t.Errorf("trend report differs from %s (regenerate with -update):\n--- got ---\n%s", golden, got)
	}
}

// TestTrendLastWindow: -last 2 restricts the window to the newest runs —
// here runs 2 and 3, whose cpu medians still decay.
func TestTrendLastWindow(t *testing.T) {
	storePath := importTrendFixture(t, filepath.Join("testdata", "trend"))
	var out strings.Builder
	err := run([]string{"-trend", "-q", "-last", "2", storePath}, &out)
	if err == nil || !strings.Contains(err.Error(), "worsening") {
		t.Fatalf("2-run window did not gate: %v", err)
	}
	if !strings.Contains(out.String(), "over 2 runs") {
		t.Errorf("window not restricted:\n%s", out.String())
	}
	// And a degenerate window is a loud error, not an empty report.
	if err := run([]string{"-trend", "-q", "-last", "1", storePath}, &out); err == nil || !strings.Contains(err.Error(), "at least 2") {
		t.Fatalf("single-run window accepted: %v", err)
	}
}

func TestTrendUsageErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-trend"}, &out); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Fatalf("missing store argument accepted: %v", err)
	}
	if err := run([]string{"-trend", "-md", "x.md", "store"}, &out); err == nil || !strings.Contains(err.Error(), "-md") {
		t.Fatalf("-md with -trend accepted: %v", err)
	}
	if err := run([]string{"-trend", "/nonexistent/history.store"}, &out); err == nil {
		t.Fatal("missing store accepted")
	}
}
