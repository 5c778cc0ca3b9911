package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opaquebench/internal/compare"
	"opaquebench/internal/store"
	"opaquebench/internal/suite"
)

// TestRunWithCacheStoreWarmReplay: the -cache-store flag runs the suite
// against an embedded store and a second run replays every campaign
// byte-identically from it.
func TestRunWithCacheStoreWarmReplay(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir)
	storePath := filepath.Join(dir, "results.store")

	var cold strings.Builder
	if err := run([]string{"run", "-q", "-cache-store", storePath, spec}, &cold); err != nil {
		t.Fatalf("cold run: %v\n%s", err, cold.String())
	}
	if !strings.Contains(cold.String(), "miss") {
		t.Errorf("cold run verdicts wrong:\n%s", cold.String())
	}
	mem1, err := os.ReadFile(filepath.Join(dir, "mem.csv"))
	if err != nil {
		t.Fatalf("cold run wrote no mem.csv: %v", err)
	}

	var warm strings.Builder
	if err := run([]string{"run", "-q", "-cache-store", storePath, spec}, &warm); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if strings.Contains(warm.String(), "miss") || !strings.Contains(warm.String(), "trials 0") {
		t.Errorf("warm run did not replay from the store:\n%s", warm.String())
	}
	mem2, err := os.ReadFile(filepath.Join(dir, "mem.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(mem1) != string(mem2) {
		t.Errorf("store replay not byte-identical: %d vs %d bytes", len(mem2), len(mem1))
	}

	// The store survives a verify pass and a baseline self-gate reads this
	// run's records back from it.
	var verify strings.Builder
	if err := run([]string{"store", "verify", storePath}, &verify); err != nil {
		t.Fatalf("store verify: %v", err)
	}
	if !strings.Contains(verify.String(), "ok:") || !strings.Contains(verify.String(), "3 live") {
		t.Errorf("verify report wrong:\n%s", verify.String())
	}
	var gated strings.Builder
	if err := run([]string{"run", "-q", "-cache-store", storePath, "-baseline", storePath, spec}, &gated); err != nil {
		t.Fatalf("store self-gate: %v\n%s", err, gated.String())
	}
	if !strings.Contains(gated.String(), "3 pass, 0 regressed") {
		t.Errorf("store self-gate not clean:\n%s", gated.String())
	}
}

// TestRunPinAndTrendWorkflow drives the full history workflow through the
// CLI: three pinned runs of a decaying campaign, queried with store
// subcommands, garbage-collected, compacted and trend-gated.
func TestRunPinAndTrendWorkflow(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir)
	storePath := filepath.Join(dir, "history.store")

	src, err := os.ReadFile(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, duty := range []string{"", `"duty": 0.8, `, `"duty": 0.6, `} {
		edited := strings.Replace(string(src), `"governor": "performance", `,
			`"governor": "performance", `+duty, 1)
		if err := os.WriteFile(spec, []byte(edited), 0o666); err != nil {
			t.Fatal(err)
		}
		runName := "run" + string(rune('1'+i))
		var out strings.Builder
		if err := run([]string{"run", "-q", "-cache-store", storePath, "-run", runName, spec}, &out); err != nil {
			t.Fatalf("%s: %v\n%s", runName, err, out.String())
		}
		if !strings.Contains(out.String(), `pinned run "`+runName+`"`) {
			t.Errorf("%s not pinned:\n%s", runName, out.String())
		}
	}

	var runs strings.Builder
	if err := run([]string{"store", "runs", storePath}, &runs); err != nil {
		t.Fatalf("store runs: %v", err)
	}
	for _, want := range []string{"run1", "run2", "run3", "3 runs"} {
		if !strings.Contains(runs.String(), want) {
			t.Errorf("runs listing missing %q:\n%s", want, runs.String())
		}
	}

	// ls: all entries, then filtered by campaign and by pinning run. The
	// three runs share the unchanged mem and net entries, so 3 runs of 3
	// campaigns cost 5 distinct entries.
	var ls strings.Builder
	if err := run([]string{"store", "ls", storePath}, &ls); err != nil {
		t.Fatalf("store ls: %v", err)
	}
	if !strings.Contains(ls.String(), "5 entries") {
		t.Errorf("ls totals wrong (want content-address dedupe):\n%s", ls.String())
	}
	ls.Reset()
	if err := run([]string{"store", "ls", "-campaign", "cpu", storePath}, &ls); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ls.String(), "3 entries") {
		t.Errorf("campaign filter wrong:\n%s", ls.String())
	}
	ls.Reset()
	if err := run([]string{"store", "ls", "-pinned-by", "run2", storePath}, &ls); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ls.String(), "3 entries") {
		t.Errorf("pinned-by filter wrong:\n%s", ls.String())
	}

	// The pinned history feeds the trend analysis: cpu decays monotonically
	// across the three runs (duty 1.0 -> 0.8 -> 0.6), mem and net replay
	// identically.
	trendRuns, err := compare.LoadStoreRuns(storePath)
	if err != nil {
		t.Fatalf("LoadStoreRuns: %v", err)
	}
	tr, err := compare.TrendAcrossRuns(trendRuns, compare.Gate{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Drifting != 1 || tr.Unjudged != 0 || tr.Clean() {
		t.Fatalf("trend over pinned runs: %s", tr.Summary())
	}
	for _, ct := range tr.Campaigns {
		if ct.Campaign == "cpu" && (ct.State != compare.TrendDrifting || ct.Direction != "worsening") {
			t.Errorf("cpu trend: %s/%s, want drifting/worsening", ct.State, ct.Direction)
		}
	}

	// Unpinning run2 frees exactly its cpu entry (mem and net are shared
	// with the still-pinned runs); gc reclaims it and compact drops it.
	var out strings.Builder
	if err := run([]string{"store", "unpin", storePath, "run2"}, &out); err != nil {
		t.Fatalf("unpin: %v", err)
	}
	out.Reset()
	if err := run([]string{"store", "gc", storePath}, &out); err != nil {
		t.Fatalf("gc: %v", err)
	}
	if !strings.Contains(out.String(), "1 entries reclaimed, 4 live") {
		t.Errorf("gc totals wrong:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"store", "compact", storePath}, &out); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if !strings.Contains(out.String(), "4 live entries") {
		t.Errorf("compact totals wrong:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"store", "verify", storePath}, &out); err != nil {
		t.Fatalf("verify after compact: %v\n%s", err, out.String())
	}
}

// TestStoreImportMatchesDirCache: a legacy cache directory — one
// <key>.json file per entry, holding a run's payload bytes — imported with
// store import -run replays identically to the run that produced it.
func TestStoreImportMatchesDirCache(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir)
	origPath := filepath.Join(dir, "orig.store")
	if err := run([]string{"run", "-q", "-cache-store", origPath, spec}, &strings.Builder{}); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	cacheDir := filepath.Join(dir, "legacy")
	writeLegacyDir(t, origPath, cacheDir)
	storePath := filepath.Join(dir, "imported.store")
	var out strings.Builder
	if err := run([]string{"store", "import", "-run", "baseline", storePath, cacheDir}, &out); err != nil {
		t.Fatalf("import: %v", err)
	}
	if !strings.Contains(out.String(), "imported 3 entries") || !strings.Contains(out.String(), `pinned as "baseline"`) {
		t.Errorf("import summary wrong:\n%s", out.String())
	}

	// A warm run against the imported store executes nothing and writes
	// the same output bytes the cold run wrote.
	mem1, err := os.ReadFile(filepath.Join(dir, "mem.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var warm strings.Builder
	if err := run([]string{"run", "-q", "-cache-store", storePath, spec}, &warm); err != nil {
		t.Fatalf("warm run on import: %v", err)
	}
	if strings.Contains(warm.String(), "miss") {
		t.Errorf("import missed entries:\n%s", warm.String())
	}
	mem2, err := os.ReadFile(filepath.Join(dir, "mem.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(mem1) != string(mem2) {
		t.Error("imported store replay differs from the cold run")
	}

	// chain on a static entry is a single-link chain, addressed by prefix.
	keys, err := cacheKeys(storePath)
	if err != nil {
		t.Fatal(err)
	}
	var chain strings.Builder
	if err := run([]string{"store", "chain", storePath, keys[0][:12]}, &chain); err != nil {
		t.Fatalf("chain: %v", err)
	}
	if !strings.Contains(chain.String(), "round 0") {
		t.Errorf("chain output wrong:\n%s", chain.String())
	}
}

// writeLegacyDir writes every entry of a store into dir in the legacy cache
// directory layout: one <key>.json file holding the entry's payload bytes.
func writeLegacyDir(t *testing.T, storePath, dir string) {
	t.Helper()
	st, err := store.Open(storePath, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := os.MkdirAll(dir, 0o777); err != nil {
		t.Fatal(err)
	}
	for _, key := range st.Keys() {
		data, err := st.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// cacheKeys lists a store's live keys via the suite cache API.
func cacheKeys(storePath string) ([]string, error) {
	cache, err := suite.ReadCacheStore(storePath)
	if err != nil {
		return nil, err
	}
	defer cache.Close()
	return cache.Keys(), nil
}

func TestStoreUsageErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"store"}, &out); err == nil || !strings.Contains(err.Error(), "missing store subcommand") {
		t.Fatalf("bare store accepted: %v", err)
	}
	if err := run([]string{"store", "frobnicate"}, &out); err == nil || !strings.Contains(err.Error(), "unknown store subcommand") {
		t.Fatalf("unknown subcommand accepted: %v", err)
	}
	if err := run([]string{"store", "verify", "/nonexistent/x.store"}, &out); err == nil {
		t.Fatal("missing store accepted")
	}
	dir := t.TempDir()
	spec := writeSpec(t, dir)
	if err := run([]string{"run", "-run", "r1", "-cache-store", "", spec}, &out); err == nil ||
		!strings.Contains(err.Error(), "-cache-store") {
		t.Fatalf("-run without -cache-store accepted: %v", err)
	}
}

// TestLegacyDirectoryNamesImport: every cache flag refuses a legacy cache
// directory with an error that names the import command.
func TestLegacyDirectoryNamesImport(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir)
	legacy := t.TempDir()
	for _, args := range [][]string{
		{"run", "-q", "-cache-store", legacy, spec},
		{"run", "-dry-run", "-cache-store", legacy, spec},
		{"run", "-q", "-cache-store", filepath.Join(dir, "c.store"), "-baseline", legacy, spec},
		{"plan", "-cache-store", legacy, spec},
	} {
		err := run(args, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), "suite store import <store> "+legacy) {
			t.Errorf("%v: err = %v, want one naming suite store import", args, err)
		}
	}
}

// TestDryRunWithStoreCreatesNothing: a dry run against a store path that
// does not exist must not create the file, and against a warm store must
// report hits read-only.
func TestDryRunWithStoreCreatesNothing(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir)
	storePath := filepath.Join(dir, "dry.store")

	var out strings.Builder
	if err := run([]string{"run", "-dry-run", "-cache-store", storePath, spec}, &out); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	if _, err := os.Stat(storePath); !os.IsNotExist(err) {
		t.Errorf("dry run created the store (stat err = %v)", err)
	}
	if !strings.Contains(out.String(), "miss") {
		t.Errorf("dry run against no store should be all-miss:\n%s", out.String())
	}

	if err := run([]string{"run", "-q", "-cache-store", storePath, spec}, &strings.Builder{}); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	fi, err := os.Stat(storePath)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"run", "-dry-run", "-cache-store", storePath, spec}, &out); err != nil {
		t.Fatalf("warm dry run: %v", err)
	}
	if strings.Contains(out.String(), "miss") {
		t.Errorf("warm dry run missed:\n%s", out.String())
	}
	fi2, err := os.Stat(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if fi2.Size() != fi.Size() || fi2.ModTime() != fi.ModTime() {
		t.Error("dry run mutated the store")
	}
}
