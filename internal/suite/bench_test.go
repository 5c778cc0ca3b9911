package suite

import (
	"context"
	"testing"
)

// BenchmarkSuiteWarmReplay measures a fully warm adaptive suite run: every
// round's key found in the cache, records replayed into the sinks, and the
// planner re-deriving the identical round chain from the replayed data —
// the steady-state cost of iterating on a cached study.
func BenchmarkSuiteWarmReplay(b *testing.B) {
	spec, err := Parse([]byte(adaptiveSpecJSON), "bench.json")
	if err != nil {
		b.Fatal(err)
	}
	cache, _ := openTestStoreCache(b)
	if _, err := Run(context.Background(), spec, Options{
		Cache: cache, BaseDir: b.TempDir(), Workers: 4,
	}); err != nil {
		b.Fatalf("cold run: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), spec, Options{
			Cache: cache, BaseDir: b.TempDir(), Workers: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Campaigns[0].Hit {
			b.Fatal("warm run missed the cache")
		}
	}
}

// lightSpecJSON is four light campaigns (one per non-memory engine) with
// microsecond trials: on a warm cache their suite run is all hits, so its
// cost is the hit path itself.
const lightSpecJSON = `{
  "suite": "light",
  "workers": 2,
  "campaigns": [
    {"name": "net", "engine": "netbench", "seed": 5, "workers": 2, "config": {"profile": "taurus", "n": 100, "reps": 4}, "out": "net.csv", "jsonl": "net.jsonl"},
    {"name": "coll", "engine": "collbench", "seed": 5, "workers": 2, "config": {}, "out": "coll.csv", "jsonl": "coll.jsonl"},
    {"name": "numa", "engine": "numabench", "seed": 5, "workers": 2, "config": {}, "out": "numa.csv", "jsonl": "numa.jsonl"},
    {"name": "cpu", "engine": "cpubench", "seed": 5, "workers": 2, "config": {"governor": "performance", "policy": "rt", "reps": 8}, "out": "cpu.csv", "jsonl": "cpu.jsonl"}
  ]
}`

// BenchmarkSuiteStaticHit measures a warm store-backed suite run of four
// static campaigns, every one a cache hit: planning plus, per campaign, one
// store read and a byte copy of the entry into the output files.
func BenchmarkSuiteStaticHit(b *testing.B) {
	spec, err := Parse([]byte(lightSpecJSON), "light.json")
	if err != nil {
		b.Fatal(err)
	}
	cache, _ := openTestStoreCache(b)
	outDir := b.TempDir()
	if _, err := Run(context.Background(), spec, Options{Cache: cache, BaseDir: outDir}); err != nil {
		b.Fatalf("cold run: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), spec, Options{Cache: cache, BaseDir: outDir})
		if err != nil {
			b.Fatal(err)
		}
		for _, cr := range res.Campaigns {
			if !cr.Hit {
				b.Fatalf("%s missed the cache", cr.Name)
			}
		}
	}
}
