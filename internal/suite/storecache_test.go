package suite

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"opaquebench/internal/meta"
	"opaquebench/internal/runner"
	"opaquebench/internal/store"
)

// openTestStoreCache opens a cache store at a fresh path.
func openTestStoreCache(t testing.TB) (*Cache, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cache.store")
	c, err := OpenCacheStore(path)
	if err != nil {
		t.Fatalf("OpenCacheStore: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, path
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

// TestStoreImportPropertyRoundTrip is the property test over the legacy
// import: ~200 seeded random entries are written in the legacy directory
// layout — most as the format-2 bytes storeRaw writes, some as legacy JSON —
// beside in-flight temporary files, and imported into one store, while the
// same entries are Stored directly into another. Both stores must hold the
// same Keys() and replay every entry's CSV/JSONL byte stream identically.
func TestStoreImportPropertyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(20170529))
	legacyDir := t.TempDir()
	directCache, _ := openTestStoreCache(t)
	const cases = 200
	keys := make([]string, 0, cases)
	for i := 0; i < cases; i++ {
		key, e := randomEntry(r, i)
		if i < 2 {
			// "k" sorts before "k-1", but "k.json" sorts after
			// "k-1.json": the import must walk keys, not file names.
			key = []string{"k", "k-1"}[i]
		}
		var data []byte
		var err error
		if i%5 == 0 {
			data, err = json.Marshal(e)
		} else {
			var raw *rawEntry
			if raw, err = newRawEntry(e); err == nil {
				data, err = raw.encode()
			}
		}
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		if err := os.WriteFile(filepath.Join(legacyDir, key+".json"), data, 0o666); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			// A crashed writer's temp file is not an entry.
			if err := os.WriteFile(filepath.Join(legacyDir, key+".tmp123.json"), data[:len(data)/2], 0o666); err != nil {
				t.Fatal(err)
			}
		}
		if err := directCache.Store(key, e); err != nil {
			t.Fatalf("case %d: store: %v", i, err)
		}
		keys = append(keys, key)
	}

	importedCache, _ := openTestStoreCache(t)
	impKeys, err := ImportDirToStore(legacyDir, importedCache.Backing())
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(impKeys, keys) {
		t.Fatalf("imported %d keys, want the %d written, sorted", len(impKeys), len(keys))
	}
	if got, want := importedCache.Keys(), directCache.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("imported store holds %d keys, direct store %d", len(got), len(want))
	}

	for _, key := range keys {
		want, err := directCache.Load(key)
		if err != nil {
			t.Fatalf("direct load %s: %v", key, err)
		}
		got, err := importedCache.Load(key)
		if err != nil {
			t.Fatalf("imported load %s: %v", key, err)
		}
		wantCSV, wantJSONL := replayStreams(t, want)
		gotCSV, gotJSONL := replayStreams(t, got)
		if !bytes.Equal(gotCSV, wantCSV) {
			t.Errorf("%s: CSV replay stream differs (%d vs %d bytes)", key, len(gotCSV), len(wantCSV))
		}
		if !bytes.Equal(gotJSONL, wantJSONL) {
			t.Errorf("%s: JSONL replay stream differs (%d vs %d bytes)", key, len(gotJSONL), len(wantJSONL))
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
	// And it survives its own integrity check.
	if _, err := st.Verify(); err != nil {
		t.Errorf("imported store Verify: %v", err)
	}
}

// TestAdaptiveStoreProvenanceChain: an adaptive campaign replays warm
// all-hit, and the store's provenance chain links each round to the one it
// was planned from.
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
