package enginetest_test

import (
	"encoding/json"
	"testing"

	"opaquebench/internal/engine"
	"opaquebench/internal/engine/enginetest"
)

// smallConfigs keeps the battery fast: each registered engine gets a
// reduced but representative config (few levels, few replicates) whose
// design still has room for the refine check to zoom into. An engine
// missing from this map runs with its defaults — correct, just slower.
var smallConfigs = map[string]json.RawMessage{
	"membench":  json.RawMessage(`{"sizes": [1024, 16384, 262144], "reps": 3}`),
	"netbench":  json.RawMessage(`{"n": 12, "reps": 2}`),
	"cpubench":  json.RawMessage(`{"nloops": [20, 200, 2000], "reps": 3}`),
	"numabench": json.RawMessage(`{"n": 12, "reps": 2, "policies": ["firsttouch", "interleave"]}`),
	"collbench": json.RawMessage(`{"n": 12, "reps": 2}`),
}

// TestRegisteredEnginesConformance runs the full seven-check battery against
// every engine in the registry — the gate that makes "registered" mean
// "inherits the determinism/replay discipline", automatically including
// engines added after this test was written.
func TestRegisteredEnginesConformance(t *testing.T) {
	names := engine.Names()
	if len(names) == 0 {
		t.Fatal("no engines registered")
	}
	for _, name := range names {
		def, ok := engine.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missed an engine Names() listed", name)
		}
		t.Run(name, func(t *testing.T) {
			enginetest.Conformance(t, def, smallConfigs[name])
		})
	}
}
