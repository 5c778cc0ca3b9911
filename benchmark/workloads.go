package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"opaquebench/internal/suite"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// start builds the workload's system in e.dir and runs the untimed
	// warm-up op; everything it does counts as set-up time.
	start func(ctx context.Context, e *env) (instance, error)
}

// env is what a workload's set-up is given.
type env struct {
	name  string
	seed  uint64
	w     int
	trace bool
	dir   string
}

// instance is a workload that is set up and ready for timed ops.
type instance interface {
	// clients is the number of goroutines issuing ops (a closed loop: each
	// waits for its op to finish before issuing the next).
	clients() int
	// op runs op j (1-based) of client; id is the run-wide op id and span
	// the index of the op's trace span (traced runs only).
	op(ctx context.Context, id, span, client, j int) opSample
	// finish runs after the timed phase: it completes the samples' counts
	// where the op could not see them, checks outputs (marking failed
	// samples) and releases the system under test. It returns a description
	// of each check that failed.
	finish(ctx context.Context, samples []opSample) ([]string, error)
	// probeCache is the cache a traced run re-times the ops' calls against;
	// it is valid after finish.
	probeCache() (*suite.Cache, error)
	// logSize is the store's log length in bytes.
	logSize() int64
	close() error
}

var workloads = []workload{
	{
		name:  "mem-cold",
		why:   "memsim dominates: sizes cross L1-L3; stride 1 exercises a line-granular memsim change, stride 16 bypasses it",
		start: startSuite(study{campaigns: []campaign{memCampaign}}),
	},
	{
		name:  "light-cold",
		why:   "microsecond trials: planning, runner reordering, sink and entry encoding and store appends dominate; memsim never runs",
		start: startSuite(study{campaigns: lightCampaigns}),
	},
	{
		name:  "warm-edit",
		why:   "iterate on a cached six-campaign study: each op re-seeds one campaign (1 miss, 5 hits), so store reads run beside one append",
		start: startSuite(study{campaigns: warmCampaigns, fill: true, edit: 5}),
	},
	{
		name:  "serve-loop",
		why:   "W closed-loop HTTP clients submit light-cold suites to the daemon, a quarter of them duplicates: isolates the serve layer",
		start: startServe,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// campaign is one campaign template of a generated study; the op supplies
// its seed.
type campaign struct {
	name, engine string
	config       string
	adaptive     string // the adaptive stanza; empty for a static campaign
}

var memCampaign = campaign{name: "mem", engine: "membench",
	config: `{"machine":"i7","sizes":[4096,16384,65536,262144,1048576,4194304],"strides":[1,16],"reps":2}`}

var lightCampaigns = []campaign{
	{name: "net", engine: "netbench", config: `{"profile":"taurus","n":100,"reps":4}`},
	{name: "coll", engine: "collbench", config: `{}`},
	{name: "numa", engine: "numabench", config: `{}`},
	{name: "cpu", engine: "cpubench", config: `{"governor":"performance","policy":"rt","reps":8}`},
}

// warmCampaigns is the warm-edit study: the light-cold campaigns, a small
// membench ladder, and the adaptive campaign of examples/suite/adaptive.json.
// The first five are the static campaigns ops re-seed; the adaptive one is
// always replayed, re-deriving its rounds from cached records.
var warmCampaigns = append(append([]campaign(nil), lightCampaigns...),
	campaign{name: "mem-small", engine: "membench",
		config: `{"machine":"i7","governor":"performance","sizes":[4096,16384,65536,262144],"strides":[1,2,4,8],"reps":4}`},
	campaign{name: "mem-zoom", engine: "membench",
		config:   `{"machine":"i7","governor":"performance","sizes":[4096,16384,65536,262144,1048576,4194304],"strides":[16],"reps":6}`,
		adaptive: `{"rounds":2,"budget":150,"target_rel_ci":0.02,"top_points":3,"extra_reps":4,"zoom_per_break":4,"min_seg":10}`},
)

// mix derives a seed from its parts (splitmix64 over a running hash). Seeds
// stay below 2^53 so every JSON reader keeps them exact.
func mix(parts ...uint64) uint64 {
	h := uint64(0x6a09e667f3bcc909)
	for _, p := range parts {
		h += p + 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h&(1<<53-1) | 1
}

func nameHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// opSeed is the seed of client's op j; the op's campaign seeds derive from
// it. The base seed of a warm study is opSeed(-1, 0).
func (e *env) opSeed(client, j int) uint64 {
	return mix(e.seed, nameHash(e.name), uint64(client), uint64(j))
}

// studySpec renders a study as the suite JSON a user would write and parses
// it back, so the system sees only a generated spec.
func studySpec(name string, camps []campaign, seeds []uint64, workers int, traced bool) (*suite.Spec, []byte, error) {
	spec := suite.Spec{Name: name, Workers: workers}
	for i, c := range camps {
		sc := suite.Campaign{
			Name: c.name, Engine: engineName(c.engine, traced), Seed: seeds[i], Workers: workers,
			Config: json.RawMessage(c.config), Out: c.name + ".csv", JSONL: c.name + ".jsonl",
		}
		if c.adaptive != "" {
			sc.Adaptive = new(suite.AdaptiveSpec)
			if err := json.Unmarshal([]byte(c.adaptive), sc.Adaptive); err != nil {
				return nil, nil, fmt.Errorf("campaign %s: adaptive stanza: %w", c.name, err)
			}
		}
		spec.Campaigns = append(spec.Campaigns, sc)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, err
	}
	parsed, err := suite.Parse(data, name+".json")
	return parsed, data, err
}

// digest identifies a campaign's output bytes.
type digest struct {
	CSV   string `json:"csv"`
	JSONL string `json:"jsonl,omitempty"`
}

func sum(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
}

// opDigest folds per-campaign digests into the op's digest.
func opDigest(ds []digest) string {
	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintf(h, "%s %s\n", d.CSV, d.JSONL)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// outputDigests hashes the CSV and JSONL files a spec's campaigns wrote
// under dir, in spec order.
func outputDigests(dir string, spec *suite.Spec) ([]digest, error) {
	out := make([]digest, len(spec.Campaigns))
	for i, c := range spec.Campaigns {
		csv, err := os.ReadFile(filepath.Join(dir, c.Out))
		if err != nil {
			return nil, err
		}
		jsonl, err := os.ReadFile(filepath.Join(dir, c.JSONL))
		if err != nil {
			return nil, err
		}
		out[i] = digest{CSV: sum(csv), JSONL: sum(jsonl)}
	}
	return out, nil
}

// referenceRun runs camps once more the plainest way: untraced, one worker,
// no cache. Its digests are what the measured op must have produced.
func referenceRun(ctx context.Context, name string, camps []campaign, seeds []uint64, dir string) ([]digest, error) {
	spec, _, err := studySpec(name, camps, seeds, 1, false)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if _, err := suite.Run(ctx, spec, suite.Options{Workers: 1, BaseDir: dir}); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return outputDigests(dir, spec)
}

// opSample is one op as measured; the exported fields are the raw record
// written to <workload>.ops.jsonl.
type opSample struct {
	ID        int     `json:"id"`
	Client    int     `json:"client"`
	Index     int     `json:"index"`
	Seed      uint64  `json:"seed"`
	StartMs   float64 `json:"start_ms"`
	LatencyMs float64 `json:"latency_ms"`
	Trials    int     `json:"trials"`
	Records   int     `json:"records"`
	Hits      int     `json:"hits"`
	Campaigns int     `json:"campaigns"`
	Duplicate bool    `json:"duplicate,omitempty"`
	Digest    string  `json:"digest"`
	Err       string  `json:"error,omitempty"`

	start, end time.Time
	spec       []byte
	camps      []campaignOutcome
	job        string
}

// campaignOutcome is what one op did with one campaign.
type campaignOutcome struct {
	name     string
	seed     uint64
	keys     []string // one cache key, or one per round of an adaptive campaign
	hit      bool
	adaptive bool
	trials   int
	digest   digest
}

func (s *opSample) fail(format string, args ...any) {
	if s.Err == "" {
		s.Err = fmt.Sprintf(format, args...)
	}
}
