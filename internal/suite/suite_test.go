package suite

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"opaquebench/internal/memsim"
	"opaquebench/internal/runner"
)

// serialReference runs every campaign of the spec cold and serially — the
// one-worker runner.Sequential over one factory-made engine — and writes the
// sink files the suite is expected to reproduce byte for byte.
func serialReference(t *testing.T, spec *Spec, dir string) {
	t.Helper()
	plans, err := BuildPlans(spec)
	if err != nil {
		t.Fatalf("BuildPlans: %v", err)
	}
	for _, p := range plans {
		eng, err := p.Factory.NewEngine()
		if err != nil {
			t.Fatalf("%s: engine: %v", p.Campaign.Name, err)
		}
		res, err := runner.Sequential(context.Background(), p.Design, eng)
		if err != nil {
			t.Fatalf("%s: serial run: %v", p.Campaign.Name, err)
		}
		sinks, closers, err := runner.FileSinks(io.Discard,
			filepath.Join(dir, p.Campaign.Out), filepath.Join(dir, p.Campaign.JSONL))
		if err != nil {
			t.Fatalf("%s: sinks: %v", p.Campaign.Name, err)
		}
		for _, s := range sinks {
			if err := runner.WriteAll(res, s); err != nil {
				t.Fatalf("%s: write: %v", p.Campaign.Name, err)
			}
		}
		for _, c := range closers {
			c.Close()
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return data
}

// compareSinks asserts every campaign CSV/JSONL under dir is byte-identical
// to the serial reference.
func compareSinks(t *testing.T, spec *Spec, refDir, dir, label string) {
	t.Helper()
	for _, c := range spec.Campaigns {
		for _, name := range []string{c.Out, c.JSONL} {
			if name == "" {
				continue
			}
			want := readFile(t, filepath.Join(refDir, name))
			got := readFile(t, filepath.Join(dir, name))
			if string(want) != string(got) {
				t.Errorf("%s: %s/%s differs from the serial reference (%d vs %d bytes)",
					label, c.Name, name, len(got), len(want))
			}
		}
	}
}

// TestCacheReplayByteIdentical is the suite determinism guarantee: a suite
// of three campaigns (one per engine) runs cold at workers 1, 4 and 8 and
// then warm from the cache, and every CSV/JSONL file —
// cold, warm, any worker count — is byte-identical to a cold serial
// runner.Sequential run, with the warm run executing zero trials.
func TestCacheReplayByteIdentical(t *testing.T) {
	spec := parseTestSpec(t)
	refDir := t.TempDir()
	serialReference(t, spec, refDir)

	for _, workers := range []int{1, 4, 8} {
		spec := parseTestSpec(t)
		for i := range spec.Campaigns {
			spec.Campaigns[i].Workers = workers
		}
		c, _ := openTestStoreCache(t)
		coldDir := t.TempDir()
		warmDir := t.TempDir()

		cold, err := Run(context.Background(), spec, Options{
			Cache: c, BaseDir: coldDir, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers %d: cold run: %v", workers, err)
		}
		for _, cr := range cold.Campaigns {
			if cr.Hit || cr.Trials == 0 {
				t.Errorf("workers %d: cold %s: verdict %s, %d trials", workers, cr.Name, cr.Verdict(), cr.Trials)
			}
		}
		compareSinks(t, spec, refDir, coldDir, fmt.Sprintf("workers %d cold", workers))

		warm, err := Run(context.Background(), spec, Options{
			Cache: c, BaseDir: warmDir, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers %d: warm run: %v", workers, err)
		}
		for _, cr := range warm.Campaigns {
			if !cr.Hit {
				t.Errorf("workers %d: warm %s: verdict %s", workers, cr.Name, cr.Verdict())
			}
			if cr.Trials != 0 {
				t.Errorf("workers %d: warm %s executed %d trials, want 0", workers, cr.Name, cr.Trials)
			}
		}
		compareSinks(t, spec, refDir, warmDir, fmt.Sprintf("workers %d warm", workers))

		if cold.SpecHash != warm.SpecHash {
			t.Errorf("workers %d: spec hash moved between runs", workers)
		}
	}
}

// TestEntryWithoutJSONLFileReplays: a campaign that names no JSONL file
// still stores its JSONL section, so its entry hits both a rerun without
// the file and a rerun that adds it, and the added file is byte-identical
// to the serial reference.
func TestEntryWithoutJSONLFileReplays(t *testing.T) {
	full := parseTestSpec(t)
	refDir := t.TempDir()
	serialReference(t, full, refDir)

	noJSONL := parseTestSpec(t)
	noJSONL.Campaigns[1].JSONL = ""
	c, _ := openTestStoreCache(t)
	coldDir := t.TempDir()
	if _, err := Run(context.Background(), noJSONL, Options{Cache: c, BaseDir: coldDir}); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	compareSinks(t, noJSONL, refDir, coldDir, "cold")
	if _, err := os.Stat(filepath.Join(coldDir, full.Campaigns[1].JSONL)); !os.IsNotExist(err) {
		t.Errorf("cold run wrote an unrequested JSONL file: %v", err)
	}

	for _, spec := range []*Spec{noJSONL, full} {
		warmDir := t.TempDir()
		warm, err := Run(context.Background(), spec, Options{Cache: c, BaseDir: warmDir})
		if err != nil {
			t.Fatalf("warm run: %v", err)
		}
		for _, cr := range warm.Campaigns {
			if !cr.Hit || cr.Trials != 0 {
				t.Errorf("warm %s: verdict %s, %d trials", cr.Name, cr.Verdict(), cr.Trials)
			}
		}
		compareSinks(t, spec, refDir, warmDir, "warm")
	}
}

// TestEditingOneCampaignReexecutesOnlyIt: after a warm cache, editing one
// campaign re-runs exactly that campaign; the others replay.
func TestEditingOneCampaignReexecutesOnlyIt(t *testing.T) {
	spec := parseTestSpec(t)
	cache, _ := openTestStoreCache(t)
	if _, err := Run(context.Background(), spec, Options{Cache: cache, BaseDir: t.TempDir()}); err != nil {
		t.Fatalf("cold run: %v", err)
	}

	edited := parseTestSpec(t)
	edited.Campaigns[2].Seed = 99
	res, err := Run(context.Background(), edited, Options{Cache: cache, BaseDir: t.TempDir()})
	if err != nil {
		t.Fatalf("edited run: %v", err)
	}
	wantHit := []bool{true, true, false}
	for i, cr := range res.Campaigns {
		if cr.Hit != wantHit[i] {
			t.Errorf("%s: verdict %s, want hit=%v", cr.Name, cr.Verdict(), wantHit[i])
		}
	}
}

// TestCorruptCacheEntryFallsBackToColdRun: a torn entry must not kill the
// study or poison the output.
func TestCorruptCacheEntryFallsBackToColdRun(t *testing.T) {
	spec := parseTestSpec(t)
	refDir := t.TempDir()
	serialReference(t, spec, refDir)

	cache, _ := openTestStoreCache(t)
	if _, err := Run(context.Background(), spec, Options{Cache: cache, BaseDir: t.TempDir()}); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	plans, err := BuildPlans(spec)
	if err != nil {
		t.Fatalf("BuildPlans: %v", err)
	}
	plant(t, cache, plans[0].Key, []byte("{torn"))

	outDir := t.TempDir()
	res, err := Run(context.Background(), spec, Options{Cache: cache, BaseDir: outDir})
	if err != nil {
		t.Fatalf("run over torn cache: %v", err)
	}
	if res.Campaigns[0].Hit {
		t.Errorf("torn entry reported as hit")
	}
	if !res.Campaigns[1].Hit || !res.Campaigns[2].Hit {
		t.Errorf("intact entries did not replay")
	}
	compareSinks(t, spec, refDir, outDir, "post-corruption")

	// The cold rerun must have repaired the entry.
	if entry, err := cache.Load(plans[0].Key); err != nil || len(entry.Records) == 0 {
		t.Errorf("entry not repaired: %v", err)
	}
}

// TestSuiteEnvRecordsVerdicts: the suite-level environment metadata carries
// the spec hash and a per-campaign key and verdict.
func TestSuiteEnvRecordsVerdicts(t *testing.T) {
	spec := parseTestSpec(t)
	cache, _ := openTestStoreCache(t)
	baseDir := t.TempDir()
	res, err := Run(context.Background(), spec, Options{Cache: cache, BaseDir: baseDir})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Env.Get("suite/spec_hash") != res.SpecHash || res.SpecHash == "" {
		t.Errorf("suite env spec hash %q vs %q", res.Env.Get("suite/spec_hash"), res.SpecHash)
	}
	for _, cr := range res.Campaigns {
		if got := res.Env.Get("suite/campaign/" + cr.Name + "/verdict"); got != "miss" {
			t.Errorf("%s: suite env verdict %q, want miss", cr.Name, got)
		}
		if got := res.Env.Get("suite/campaign/" + cr.Name + "/key"); got != cr.Key {
			t.Errorf("%s: suite env key %q, want %q", cr.Name, got, cr.Key)
		}
	}

	// The per-campaign env file carries the verdict too.
	env := readFile(t, filepath.Join(baseDir, "mem.env.json"))
	for _, want := range []string{`"suite/cache": "miss"`, `"suite/spec_hash"`, `"suite/cache_key"`} {
		if !strings.Contains(string(env), want) {
			t.Errorf("campaign env missing %s", want)
		}
	}

	warm, err := Run(context.Background(), spec, Options{Cache: cache, BaseDir: t.TempDir()})
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	for _, cr := range warm.Campaigns {
		if got := warm.Env.Get("suite/campaign/" + cr.Name + "/verdict"); got != "hit" {
			t.Errorf("%s: warm suite env verdict %q, want hit", cr.Name, got)
		}
	}
}

// TestDryRunTouchesNothing: -dry-run reports verdicts without creating a
// single output file or cache entry.
func TestDryRunTouchesNothing(t *testing.T) {
	spec := parseTestSpec(t)
	cache, _ := openTestStoreCache(t)
	size := cache.Backing().LogSize()
	baseDir := t.TempDir()
	res, err := Run(context.Background(), spec, Options{Cache: cache, BaseDir: baseDir, DryRun: true})
	if err != nil {
		t.Fatalf("dry run: %v", err)
	}
	for _, cr := range res.Campaigns {
		if cr.Hit || cr.Trials != 0 {
			t.Errorf("%s: dry run verdict %s, %d trials", cr.Name, cr.Verdict(), cr.Trials)
		}
	}
	entries, err := os.ReadDir(baseDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("dry run created %d files under the base dir", len(entries))
	}
	if got := cache.Backing().LogSize(); got != size {
		t.Errorf("dry run grew the cache store from %d to %d bytes", size, got)
	}
}

// totalAlloc returns the bytes f allocates, the least of three runs, so a
// stray allocation elsewhere in the process cannot inflate it.
func totalAlloc(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestPlanningBuildsNoHierarchy: planning an i7 membench campaign probes
// its engine factory to reject bad configs, but the probe engine builds no
// cache hierarchy, so the whole plan allocates a small fraction of one.
func TestPlanningBuildsNoHierarchy(t *testing.T) {
	spec, err := Parse([]byte(`{"suite": "plan", "campaigns": [{"name": "mem", "engine": "membench", "seed": 5,
		"config": {"machine": "i7", "sizes": [4096, 65536, 1048576], "strides": [1, 16], "reps": 2}, "out": "mem.csv"}]}`), "plan.json")
	if err != nil {
		t.Fatal(err)
	}
	plan := func() {
		if _, err := BuildPlans(spec); err != nil {
			t.Fatal(err)
		}
	}
	plan() // the module version is computed once per process
	hierarchy := totalAlloc(func() {
		if _, err := memsim.CoreI7().NewHierarchy(); err != nil {
			t.Fatal(err)
		}
	})
	planning := totalAlloc(plan)
	if planning > hierarchy/16 {
		t.Errorf("planning one i7 campaign allocates %d bytes; one i7 hierarchy is %d", planning, hierarchy)
	}
	t.Logf("planning allocates %d bytes; one i7 hierarchy is %d", planning, hierarchy)
}
