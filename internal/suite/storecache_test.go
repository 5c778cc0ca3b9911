package suite

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"opaquebench/internal/meta"
	"opaquebench/internal/runner"
	"opaquebench/internal/store"
)

// openTestStoreCache opens a store-backed cache at a fresh path.
func openTestStoreCache(t *testing.T) (*Cache, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cache.store")
	c, err := OpenCacheStore(path)
	if err != nil {
		t.Fatalf("OpenCacheStore: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, path
}

// TestStoreBackendByteIdentical is the cross-backend half of the suite
// determinism guarantee (TestCacheReplayByteIdentical runs each backend
// cold and warm): at workers 1, 4 and 8, a store imported from a directory
// cache replays every output byte-identically to the directory itself,
// verdict JSON included.
func TestStoreBackendByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		spec := parseTestSpec(t)
		for i := range spec.Campaigns {
			spec.Campaigns[i].Workers = workers
		}

		// Cross-backend: a directory cache warmed by its own cold run,
		// imported into a store — the two warm replays must agree byte for
		// byte on every output, the campaign verdict JSON included (same
		// cached environment, same verdict annotations).
		cacheDir := t.TempDir()
		if _, err := Run(context.Background(), spec, Options{CacheDir: cacheDir, BaseDir: t.TempDir(), Workers: workers}); err != nil {
			t.Fatalf("workers %d: cold dir run: %v", workers, err)
		}
		warmFromDir := t.TempDir()
		dirRes, err := Run(context.Background(), spec, Options{CacheDir: cacheDir, BaseDir: warmFromDir, Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: warm dir run: %v", workers, err)
		}

		imported, _ := openTestStoreCache(t)
		if _, err := ImportDirToStore(cacheDir, imported.Backing()); err != nil {
			t.Fatalf("workers %d: import: %v", workers, err)
		}
		warmFromStore := t.TempDir()
		stRes, err := Run(context.Background(), spec, Options{Cache: imported, BaseDir: warmFromStore, Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: warm imported-store run: %v", workers, err)
		}

		for i := range dirRes.Campaigns {
			d, s := dirRes.Campaigns[i], stRes.Campaigns[i]
			if d.Name != s.Name || d.Key != s.Key || d.Hit != s.Hit || d.Trials != s.Trials || d.Records != s.Records {
				t.Errorf("workers %d: verdicts diverge between backends: dir %+v store %+v", workers, d, s)
			}
		}
		for _, c := range spec.Campaigns {
			for _, name := range []string{c.Out, c.JSONL, c.Env} {
				if name == "" {
					continue
				}
				want := readFile(t, filepath.Join(warmFromDir, name))
				got := readFile(t, filepath.Join(warmFromStore, name))
				if !bytes.Equal(want, got) {
					t.Errorf("workers %d: %s/%s differs between dir and store backends (%d vs %d bytes)",
						workers, c.Name, name, len(want), len(got))
				}
			}
		}

		// The imported store must also survive its own integrity check.
		if _, err := imported.Backing().Verify(); err != nil {
			t.Errorf("workers %d: imported store Verify: %v", workers, err)
		}
	}
}

// randomEntry builds one seeded pseudo-random cache entry — the property
// test's unit of comparison.
func randomEntry(r *rand.Rand, i int) (string, *Entry) {
	var kb [32]byte
	r.Read(kb[:])
	key := fmt.Sprintf("%x", kb)
	env := &meta.Environment{
		CapturedAt: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
		Fields: map[string]string{
			"machine": []string{"i7", "arm", "snowball"}[r.Intn(3)],
			"run":     fmt.Sprintf("%d", r.Intn(1000)),
		},
	}
	e := &Entry{
		Suite:    []string{"alpha", "beta", ""}[r.Intn(3)],
		Campaign: fmt.Sprintf("c%03d", r.Intn(40)),
		Engine:   []string{"membench", "cpubench", "netbench"}[r.Intn(3)],
		Round:    r.Intn(4),
		Seed:     r.Uint64(),
		Env:      env,
	}
	n := r.Intn(20)
	// The CSV sink requires a homogeneous record schema, so point and extra
	// shape is a per-entry choice (as it is for real campaigns), not
	// per-record.
	hasPoint, hasExtra := r.Intn(2) == 0, r.Intn(4) == 0
	at := 0.0
	for s := 0; s < n; s++ {
		at += r.Float64()
		rec := cachedRecord{
			Seq: s, Rep: r.Intn(6),
			Value:   r.NormFloat64() * 1e3,
			Seconds: r.Float64() / 1e3,
			At:      at,
		}
		if hasPoint {
			rec.Point = map[string]string{"size": fmt.Sprintf("%d", 1<<r.Intn(20)), "stride": fmt.Sprintf("%d", 1+r.Intn(64))}
		}
		if hasExtra {
			rec.Extra = map[string]string{"round": fmt.Sprintf("%d", e.Round)}
		}
		e.Records = append(e.Records, rec)
	}
	return key, e
}

// replayStreams renders an entry's CSV and JSONL replay byte streams.
func replayStreams(t *testing.T, e *Entry) ([]byte, []byte) {
	t.Helper()
	var csv, jsonl bytes.Buffer
	if err := e.Replay(runner.NewCSVSink(&csv), runner.NewJSONLSink(&jsonl)); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return csv.Bytes(), jsonl.Bytes()
}

// TestStoreImportPropertyRoundTrip is the property test over the three
// write paths: ~200 seeded random entries written to a cache directory and
// to a store directly, plus an import of the directory into a third store —
// Keys() and every entry's CSV/JSONL replay byte stream must be identical
// across all backends.
func TestStoreImportPropertyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(20170529))
	dirCache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	directCache, _ := openTestStoreCache(t)
	const cases = 200
	keys := make([]string, 0, cases)
	for i := 0; i < cases; i++ {
		key, e := randomEntry(r, i)
		if err := dirCache.Store(key, e); err != nil {
			t.Fatalf("case %d: dir store: %v", i, err)
		}
		if err := directCache.Store(key, e); err != nil {
			t.Fatalf("case %d: store store: %v", i, err)
		}
		keys = append(keys, key)
	}

	importedCache, _ := openTestStoreCache(t)
	impKeys, err := ImportDirToStore(dirOfCache(t, dirCache), importedCache.Backing())
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if len(impKeys) != cases {
		t.Fatalf("imported %d entries, want %d", len(impKeys), cases)
	}

	dirKeys, err := dirCache.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []struct {
		name string
		c    *Cache
	}{{"direct store", directCache}, {"imported store", importedCache}} {
		bk, err := backend.c.Keys()
		if err != nil {
			t.Fatalf("%s: Keys: %v", backend.name, err)
		}
		if len(bk) != len(dirKeys) {
			t.Fatalf("%s: %d keys, dir has %d", backend.name, len(bk), len(dirKeys))
		}
		for i := range bk {
			if bk[i] != dirKeys[i] {
				t.Fatalf("%s: key order diverges at %d: %s vs %s", backend.name, i, bk[i], dirKeys[i])
			}
		}
	}

	for _, key := range keys {
		want, err := dirCache.Load(key)
		if err != nil {
			t.Fatalf("dir load %s: %v", key, err)
		}
		wantCSV, wantJSONL := replayStreams(t, want)
		for _, backend := range []struct {
			name string
			c    *Cache
		}{{"direct store", directCache}, {"imported store", importedCache}} {
			got, err := backend.c.Load(key)
			if err != nil {
				t.Fatalf("%s: load %s: %v", backend.name, key, err)
			}
			gotCSV, gotJSONL := replayStreams(t, got)
			if !bytes.Equal(gotCSV, wantCSV) {
				t.Errorf("%s: %s: CSV replay stream differs (%d vs %d bytes)", backend.name, key, len(gotCSV), len(wantCSV))
			}
			if !bytes.Equal(gotJSONL, wantJSONL) {
				t.Errorf("%s: %s: JSONL replay stream differs (%d vs %d bytes)", backend.name, key, len(gotJSONL), len(wantJSONL))
			}
		}
	}

	// The imported store's queryable metadata reflects the entries, not
	// just their bytes: every entry is findable by its engine.
	st := importedCache.Backing()
	total := 0
	for _, eng := range []string{"membench", "cpubench", "netbench"} {
		total += len(st.Query(store.Query{Engine: eng}))
	}
	if total != cases {
		t.Errorf("engine queries cover %d of %d imported entries", total, cases)
	}
}

// dirOfCache recovers a directory cache's path for import.
func dirOfCache(t *testing.T, c *Cache) string {
	t.Helper()
	if c.dir == "" {
		t.Fatal("not a directory cache")
	}
	return c.dir
}

// TestAdaptiveStoreProvenanceChain: an adaptive campaign through the store
// backend replays warm all-hit, and the store's provenance chain links each
// round to the one it was planned from.
func TestAdaptiveStoreProvenanceChain(t *testing.T) {
	spec := parseAdaptiveSpec(t)
	cache, _ := openTestStoreCache(t)
	cold, err := Run(context.Background(), spec, Options{Cache: cache, BaseDir: t.TempDir(), Workers: 4})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	rounds := cold.Campaigns[0].Rounds
	if len(rounds) < 2 {
		t.Fatalf("adaptive plan produced %d rounds, want ≥ 2", len(rounds))
	}

	warm, err := Run(context.Background(), spec, Options{Cache: cache, BaseDir: t.TempDir(), Workers: 4})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if !warm.Campaigns[0].Hit || warm.Campaigns[0].Trials != 0 {
		t.Fatalf("warm adaptive run: verdict %s, %d trials", warm.Campaigns[0].Verdict(), warm.Campaigns[0].Trials)
	}

	st := cache.Backing()
	last := rounds[len(rounds)-1]
	chain, err := st.Chain(last.Key)
	if err != nil {
		t.Fatalf("Chain(%s): %v", last.Key, err)
	}
	if len(chain) != len(rounds) {
		t.Fatalf("chain length %d, want %d rounds", len(chain), len(rounds))
	}
	for i, m := range chain {
		if m.Key != rounds[i].Key {
			t.Errorf("chain[%d] = %s, want round %d key %s", i, m.Key, rounds[i].Round, rounds[i].Key)
		}
		if m.Round != rounds[i].Round {
			t.Errorf("chain[%d] round %d, want %d", i, m.Round, rounds[i].Round)
		}
		if i == 0 && m.Parent != "" {
			t.Errorf("seed round has parent %q", m.Parent)
		}
		if i > 0 && m.Parent != rounds[i-1].Key {
			t.Errorf("round %d parent %s, want %s", rounds[i].Round, m.Parent, rounds[i-1].Key)
		}
	}
}
