package suite

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"opaquebench/internal/runner"
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

// warmEditSpec is the shape of the study a warm edit re-plans on every
// iteration: the four light campaigns, a membench ladder on the i7, and the
// adaptive campaign of examples/suite/adaptive.json.
func warmEditSpec(tb testing.TB) *Spec {
	tb.Helper()
	spec, err := Parse([]byte(lightSpecJSON), "light.json")
	if err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "suite", "adaptive.json"))
	if err != nil {
		tb.Fatal(err)
	}
	adaptive, err := Parse(data, "adaptive.json")
	if err != nil {
		tb.Fatal(err)
	}
	spec.Campaigns = append(spec.Campaigns, Campaign{
		Name: "mem-small", Engine: "membench", Seed: 5, Workers: 2,
		Config: json.RawMessage(`{"machine":"i7","governor":"performance","sizes":[4096,16384,65536,262144],"strides":[1,2,4,8],"reps":4}`),
		Out:    "mem-small.csv", JSONL: "mem-small.jsonl",
	})
	spec.Campaigns = append(spec.Campaigns, adaptive.Campaigns...)
	return spec
}

// BenchmarkBuildPlans measures planning the warm-edit study: config
// decoding, design materialization, the engine probe and cache keys, which
// every suite run pays serially before any campaign starts.
func BenchmarkBuildPlans(b *testing.B) {
	spec := warmEditSpec(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := BuildPlans(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedLightCampaigns is the runner rung of the light-cold
// workload: one op runs the designs of its four light campaigns (lightSpecJSON)
// through runner.Run into CSV and JSONL sinks writing to memory, as a cold
// suite run does, with no planning, cache or files. Microsecond trials make
// the sharded schedule's per-trial overhead — handoff, encoding, ordered
// writes — the cost it shows; comparing workers=1 with workers=2 shows
// whether a second worker pays for itself.
func BenchmarkShardedLightCampaigns(b *testing.B) {
	spec, err := Parse([]byte(lightSpecJSON), "light.json")
	if err != nil {
		b.Fatal(err)
	}
	plans, err := BuildPlans(spec)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var csv, jsonl bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range plans {
					csv.Reset()
					jsonl.Reset()
					sinks := []runner.RecordSink{runner.NewCSVSink(&csv), runner.NewJSONLSink(&jsonl)}
					if _, err := runner.Run(context.Background(), p.Design, p.Factory, runner.Config{Workers: workers, Sinks: sinks}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
