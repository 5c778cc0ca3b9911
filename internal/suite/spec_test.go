package suite

import (
	"bytes"
	"crypto/sha256"
	"os"
	"runtime"
	"strings"
	"testing"

	"opaquebench/internal/engine"
)

const specJSON = `{
  "suite": "t",
  "workers": 4,
  "campaigns": [
    {
      "name": "mem",
      "engine": "membench",
      "seed": 7,
      "config": { "machine": "snowball", "sizes": [1024, 8192], "reps": 2 },
      "out": "mem.csv",
      "jsonl": "mem.jsonl",
      "env": "mem.env.json"
    },
    {
      "name": "net",
      "engine": "netbench",
      "seed": 7,
      "config": { "profile": "taurus", "n": 12, "reps": 2, "perturb_factor": 3, "perturb_end": 1 },
      "out": "net.csv",
      "jsonl": "net.jsonl"
    },
    {
      "name": "cpu",
      "engine": "cpubench",
      "seed": 7,
      "config": { "governor": "performance", "policy": "rt", "nloops": [20, 200], "reps": 3 },
      "out": "cpu.csv",
      "jsonl": "cpu.jsonl"
    }
  ]
}`

func parseTestSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := Parse([]byte(specJSON), "spec.json")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return spec
}

func TestParseResolvesCampaigns(t *testing.T) {
	spec := parseTestSpec(t)
	if spec.Name != "t" || spec.Workers != 4 {
		t.Fatalf("header: %q workers %d", spec.Name, spec.Workers)
	}
	if len(spec.Campaigns) != 3 {
		t.Fatalf("campaigns: %d", len(spec.Campaigns))
	}
	plans, err := BuildPlans(spec)
	if err != nil {
		t.Fatalf("BuildPlans: %v", err)
	}
	wantTrials := []int{4, 72, 6}
	for i, p := range plans {
		if p.Design.Size() != wantTrials[i] {
			t.Errorf("campaign %s: %d trials, want %d", p.Campaign.Name, p.Design.Size(), wantTrials[i])
		}
		if len(p.Key) != 64 {
			t.Errorf("campaign %s: bad key %q", p.Campaign.Name, p.Key)
		}
	}
}

func TestParseErrorsArePositioned(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string // all must appear in the error
	}{
		{"syntax", "{\n  \"suite\": \"t\",,\n}", []string{"spec.json:2"}},
		{"top type", "{\n  \"workers\": \"many\"\n}", []string{"spec.json:2", "cannot use"}},
		{"unknown top key", "{\n  \"sweet\": \"t\"\n}", []string{"spec.json:2", `unknown key "sweet"`}},
		{"not an object", "[1]", []string{"spec.json:1", "JSON object"}},
		{"no campaigns", `{"suite": "t"}`, []string{"no campaigns"}},
		{"unknown engine", "{\"campaigns\": [\n  {\"name\": \"x\", \"engine\": \"gpubench\", \"out\": \"x.csv\"}\n]}",
			[]string{"spec.json:2", `unknown engine "gpubench"`,
				"registered engines: " + strings.Join(engine.Names(), ", ")}},
		// The enumeration is sorted, so the message is stable across
		// registration order and greppable in bug reports.
		{"unknown engine enumeration sorted", "{\"campaigns\": [\n  {\"name\": \"x\", \"engine\": \"gpubench\", \"out\": \"x.csv\"}\n]}",
			[]string{"registered engines: collbench, cpubench, membench, netbench, numabench"}},
		{"missing name", "{\"campaigns\": [\n  {\"engine\": \"membench\", \"out\": \"x.csv\"}\n]}",
			[]string{"spec.json:2", `needs a "name"`}},
		{"no sink", "{\"campaigns\": [\n  {\"name\": \"x\", \"engine\": \"membench\"}\n]}",
			[]string{"spec.json:2", "no output sink"}},
		{"unknown campaign field", "{\"campaigns\": [\n  {\"name\": \"x\", \"engine\": \"membench\", \"out\": \"x.csv\", \"sede\": 1}\n]}",
			[]string{"spec.json:2", `"sede"`}},
		{"unknown config field", "{\"campaigns\": [\n  {\"name\": \"x\", \"engine\": \"membench\", \"out\": \"x.csv\",\n   \"config\": {\"machina\": \"i7\"}}\n]}",
			[]string{"spec.json:2", `"machina"`}},
		{"duplicate name", "{\"campaigns\": [\n  {\"name\": \"x\", \"engine\": \"membench\", \"out\": \"a.csv\"},\n  {\"name\": \"x\", \"engine\": \"membench\", \"out\": \"b.csv\"}\n]}",
			[]string{"spec.json:3", `"x" already declared`}},
		{"duplicate sink path", "{\"campaigns\": [\n  {\"name\": \"x\", \"engine\": \"membench\", \"out\": \"a.csv\"},\n  {\"name\": \"y\", \"engine\": \"membench\", \"jsonl\": \"a.csv\"}\n]}",
			[]string{"spec.json:3", `"a.csv" already used by campaign "x"`}},
		{"sink path used twice in one campaign", "{\"campaigns\": [\n  {\"name\": \"x\", \"engine\": \"membench\", \"out\": \"a.csv\", \"jsonl\": \"a.csv\"}\n]}",
			[]string{"spec.json:2", `"a.csv" used twice`}},
		{"sink path aliased by spelling", "{\"campaigns\": [\n  {\"name\": \"x\", \"engine\": \"membench\", \"out\": \"out/a.csv\"},\n  {\"name\": \"y\", \"engine\": \"membench\", \"out\": \"./out/a.csv\"}\n]}",
			[]string{"spec.json:3", `already used by campaign "x"`}},
		{"duplicate campaign key", "{\"campaigns\": [\n  {\"name\": \"x\", \"engine\": \"membench\", \"out\": \"a.csv\", \"seed\": 1, \"seed\": 2}\n]}",
			[]string{"spec.json:2", `duplicate key "seed"`}},
		{"duplicate config key", "{\"campaigns\": [\n  {\"name\": \"x\", \"engine\": \"membench\", \"out\": \"a.csv\",\n   \"config\": {\"machine\": \"i7\", \"machine\": \"p4\"}}\n]}",
			[]string{"spec.json:2", `duplicate key "machine"`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src), "spec.json")
			if err == nil {
				t.Fatalf("no error for %s", tc.src)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

func TestBuildPlansRejectsCollidingSpecs(t *testing.T) {
	// Hand-constructed specs bypass Parse; BuildPlans must still refuse
	// campaigns that would race on one output file.
	spec := parseTestSpec(t)
	spec.Campaigns[1].Out = spec.Campaigns[0].Out
	if _, err := BuildPlans(spec); err == nil || !strings.Contains(err.Error(), "already used") {
		t.Errorf("shared output path not rejected: %v", err)
	}

	spec = parseTestSpec(t)
	spec.Campaigns[1].Name = spec.Campaigns[0].Name
	if _, err := BuildPlans(spec); err == nil || !strings.Contains(err.Error(), "declared twice") {
		t.Errorf("duplicate name not rejected: %v", err)
	}
}

func TestBuildPlansRejectsBadPerturbFactor(t *testing.T) {
	src := `{"campaigns": [
  {"name": "x", "engine": "netbench", "out": "x.csv",
   "config": {"n": 10, "reps": 2, "perturb_factor": 0.5}}
]}`
	spec, err := Parse([]byte(src), "spec.json")
	if err == nil {
		_, err = BuildPlans(spec)
	}
	if err == nil || !strings.Contains(err.Error(), "perturb_factor") {
		t.Fatalf("want perturb_factor rejection, got %v", err)
	}
}

func TestModuleVersionIsStableAndNonEmpty(t *testing.T) {
	v := ModuleVersion()
	if v == "" {
		t.Fatal("empty module version")
	}
	// A development build must not collapse to the constant "(devel)",
	// which would let cache entries survive simulator edits.
	if v == "(devel)" {
		t.Fatalf("module version is the constant %q", v)
	}
	if ModuleVersion() != v {
		t.Fatalf("module version not stable within a process")
	}
}

// TestExecutableDigestStreams checks ModuleVersion's fallback on the test
// binary: the streamed digest equals the hash of the whole file read at
// once, and computing it does not hold the binary in memory. A ReadFile of
// the executable would grow TotalAlloc by its full size (several MiB).
func TestExecutableDigestStreams(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Skip("no executable path:", err)
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2<<20 {
		t.Fatalf("test binary is %d bytes; too small to tell a stream from a whole read", len(data))
	}
	want := sha256.Sum256(data)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sum, err := executableDigest()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sum[:8], want[:8]) {
		t.Fatalf("digest %x, want %x", sum[:8], want[:8])
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("one digest allocated %d bytes, want < 1 MiB", grew)
	}
}

func TestBuildPlansRejectsHistoryDependentConfigs(t *testing.T) {
	src := `{"campaigns": [
  {"name": "x", "engine": "cpubench", "out": "x.csv",
   "config": {"governor": "ondemand", "reps": 2}}
]}`
	spec, err := Parse([]byte(src), "spec.json")
	if err == nil {
		_, err = BuildPlans(spec)
	}
	if err == nil || !strings.Contains(err.Error(), "load-oblivious") {
		t.Fatalf("want load-oblivious governor rejection, got %v", err)
	}
}

func TestHashIsCanonical(t *testing.T) {
	spec := parseTestSpec(t)
	h1, err := spec.Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	// Reformatting must not move the hash.
	compact := strings.NewReplacer("\n", "", "  ", "").Replace(specJSON)
	spec2, err := Parse([]byte(compact), "spec.json")
	if err != nil {
		t.Fatalf("Parse compact: %v", err)
	}
	if h2, _ := spec2.Hash(); h2 != h1 {
		t.Errorf("hash moved under reformatting: %s vs %s", h1, h2)
	}
	// A semantic edit must move it.
	spec2.Campaigns[0].Seed++
	if h3, _ := spec2.Hash(); h3 == h1 {
		t.Errorf("hash ignored a seed change")
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	base := parseTestSpec(t)
	plans, err := BuildPlans(base)
	if err != nil {
		t.Fatalf("BuildPlans: %v", err)
	}
	keys := map[string]string{}
	for _, p := range plans {
		if prev, ok := keys[p.Key]; ok {
			t.Fatalf("campaigns %s and %s share a key", prev, p.Campaign.Name)
		}
		keys[p.Key] = p.Campaign.Name
	}

	// Changing the seed changes the design and the key.
	edited := parseTestSpec(t)
	edited.Campaigns[0].Seed = 8
	editedPlans, err := BuildPlans(edited)
	if err != nil {
		t.Fatalf("BuildPlans edited: %v", err)
	}
	if editedPlans[0].Key == plans[0].Key {
		t.Errorf("seed change did not move campaign key")
	}
	for i := 1; i < 3; i++ {
		if editedPlans[i].Key != plans[i].Key {
			t.Errorf("campaign %s key moved without an edit", edited.Campaigns[i].Name)
		}
	}

	// Changing only the output paths must NOT move the cache key (results
	// are identical wherever they are written) but must move the spec hash.
	moved := parseTestSpec(t)
	moved.Campaigns[0].Out = "elsewhere.csv"
	movedPlans, err := BuildPlans(moved)
	if err != nil {
		t.Fatalf("BuildPlans moved: %v", err)
	}
	if movedPlans[0].Key != plans[0].Key {
		t.Errorf("output path moved the cache key")
	}
	h1, _ := base.Hash()
	h2, _ := moved.Hash()
	if h1 == h2 {
		t.Errorf("output path did not move the spec hash")
	}
}
