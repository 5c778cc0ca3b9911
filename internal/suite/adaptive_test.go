package suite

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// adaptiveSpecJSON mirrors the checked-in examples/suite/adaptive.json: a
// membench stride-16 sweep over a coarse size ladder straddling the i7's
// 32 KB L1 — the planted working-set breakpoint the adaptive planner must
// localize.
const adaptiveSpecJSON = `{
  "suite": "adaptive-test",
  "workers": 4,
  "campaigns": [
    {
      "name": "mem-zoom",
      "engine": "membench",
      "seed": 20170529,
      "workers": 4,
      "config": {
        "machine": "i7",
        "governor": "performance",
        "sizes": [4096, 16384, 65536, 262144, 1048576, 4194304],
        "strides": [16],
        "reps": 6
      },
      "adaptive": {
        "rounds": 2,
        "budget": 150,
        "target_rel_ci": 0.02,
        "top_points": 3,
        "extra_reps": 4,
        "zoom_per_break": 4,
        "min_seg": 10
      },
      "out": "out/mem-zoom.csv",
      "jsonl": "out/mem-zoom.jsonl"
    }
  ]
}`

const plantedL1 = 32 << 10

func parseAdaptiveSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := Parse([]byte(adaptiveSpecJSON), "adaptive-test.json")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return spec
}

// TestAdaptiveReplayByteIdentical is the acceptance fixture's determinism
// half: the full multi-round plan runs cold at workers 1 and replays from
// the suite cache at workers 1, 4 and 8 — every sink file byte-identical,
// every round a cache hit, zero trials executed warm.
func TestAdaptiveReplayByteIdentical(t *testing.T) {
	cache, _ := openTestStoreCache(t)
	refDir := t.TempDir()
	spec := parseAdaptiveSpec(t)
	cold, err := Run(context.Background(), spec, Options{
		Cache: cache, BaseDir: refDir, Workers: 1,
	})
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	cr := cold.Campaigns[0]
	if cr.Hit || cr.Trials == 0 || len(cr.Rounds) != 2 {
		t.Fatalf("cold: verdict %s, %d trials, %d rounds", cr.Verdict(), cr.Trials, len(cr.Rounds))
	}
	if cr.Trials > 150 {
		t.Fatalf("cold run executed %d trials, budget 150", cr.Trials)
	}

	for _, workers := range []int{1, 4, 8} {
		warmDir := t.TempDir()
		warm, err := Run(context.Background(), parseAdaptiveSpec(t), Options{
			Cache: cache, BaseDir: warmDir, Workers: workers,
		})
		if err != nil {
			t.Fatalf("warm run (workers %d): %v", workers, err)
		}
		wr := warm.Campaigns[0]
		if !wr.Hit || wr.Trials != 0 {
			t.Errorf("workers %d: warm verdict %s, %d trials executed", workers, wr.Verdict(), wr.Trials)
		}
		for _, rv := range wr.Rounds {
			if !rv.Hit {
				t.Errorf("workers %d: round %d missed the cache", workers, rv.Round)
			}
		}
		for _, name := range []string{"out/mem-zoom.csv", "out/mem-zoom.jsonl"} {
			want := readFile(t, filepath.Join(refDir, name))
			got := readFile(t, filepath.Join(warmDir, name))
			if string(want) != string(got) {
				t.Errorf("workers %d: %s differs from the cold run (%d vs %d bytes)", workers, name, len(got), len(want))
			}
		}
	}
}

// TestAdaptiveScheduleConverges is the acceptance fixture's localization
// half, at the suite level: PlanSchedule materializes the round-by-round
// schedule, the round-1 analysis brackets the planted L1 breakpoint, and
// every round-2 zoom level falls strictly inside a round-1 bracket — the
// refined grid is strictly inside the coarse one. A second PlanSchedule
// over the same cache replays with every round a hit.
func TestAdaptiveScheduleConverges(t *testing.T) {
	cache, _ := openTestStoreCache(t)
	scheds, err := PlanSchedule(context.Background(), parseAdaptiveSpec(t), Options{Cache: cache})
	if err != nil {
		t.Fatalf("PlanSchedule: %v", err)
	}
	cs := scheds[0]
	if !cs.Adaptive || cs.Outcome == nil || len(cs.Outcome.Rounds) != 2 {
		t.Fatalf("schedule: adaptive=%v rounds=%d", cs.Adaptive, len(cs.Rounds))
	}
	if cs.Trials > 150 {
		t.Fatalf("schedule spends %d trials, budget 150", cs.Trials)
	}

	round1 := cs.Outcome.Rounds[0].Analysis
	foundL1 := false
	for _, br := range round1.Brackets {
		if br.Contains(plantedL1) {
			foundL1 = true
		}
	}
	if !foundL1 {
		t.Fatalf("round 1 did not bracket the planted L1 %d: %+v", plantedL1, round1.Brackets)
	}
	plan := cs.Outcome.Rounds[1].Plan
	if plan == nil || len(plan.Levels) == 0 {
		t.Fatalf("round 2 has no zoom levels")
	}
	for _, level := range plan.Levels {
		inside := false
		for _, br := range plan.Brackets {
			if br.Contains(float64(level)) {
				inside = true
			}
		}
		if !inside {
			t.Errorf("round-2 level %d outside every round-1 bracket %+v", level, plan.Brackets)
		}
	}

	warm, err := PlanSchedule(context.Background(), parseAdaptiveSpec(t), Options{Cache: cache})
	if err != nil {
		t.Fatalf("warm PlanSchedule: %v", err)
	}
	for _, rv := range warm[0].Rounds {
		if !rv.Hit || rv.Trials != 0 {
			t.Errorf("warm plan round %d: hit=%v trials=%d", rv.Round, rv.Hit, rv.Trials)
		}
	}
	if warm[0].Outcome.Schedule() != cs.Outcome.Schedule() {
		t.Errorf("warm schedule differs from cold:\n--- warm ---\n%s--- cold ---\n%s",
			warm[0].Outcome.Schedule(), cs.Outcome.Schedule())
	}
}

// TestAdaptiveStanzaInSpecHash: the adaptive stanza is part of the study's
// identity — editing it must change the canonical spec hash.
func TestAdaptiveStanzaInSpecHash(t *testing.T) {
	a := parseAdaptiveSpec(t)
	b, err := Parse([]byte(strings.Replace(adaptiveSpecJSON, `"budget": 150`, `"budget": 200`, 1)), "b.json")
	if err != nil {
		t.Fatalf("Parse b: %v", err)
	}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha == hb {
		t.Fatal("editing the adaptive stanza did not change the spec hash")
	}
}

// TestAdaptiveSpecValidation: malformed adaptive stanzas fail at parse
// time with the campaign's position, and a budget that cannot cover the
// seed design fails at plan time.
func TestAdaptiveSpecValidation(t *testing.T) {
	bad := strings.Replace(adaptiveSpecJSON, `"rounds": 2`, `"rounds": -1`, 1)
	if _, err := Parse([]byte(bad), "bad.json"); err == nil || !strings.Contains(err.Error(), "rounds") {
		t.Errorf("negative rounds: err = %v", err)
	}
	unknown := strings.Replace(adaptiveSpecJSON, `"rounds": 2`, `"rnds": 2`, 1)
	if _, err := Parse([]byte(unknown), "bad.json"); err == nil {
		t.Error("unknown adaptive key accepted")
	}
	tiny := strings.Replace(adaptiveSpecJSON, `"budget": 150`, `"budget": 10`, 1)
	spec, err := Parse([]byte(tiny), "tiny.json")
	if err != nil {
		t.Fatalf("Parse tiny: %v", err)
	}
	if _, err := BuildPlans(spec); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("undersized budget: err = %v", err)
	}
}

// TestAdaptiveDryRunTouchesNothing: -dry-run on an adaptive suite reports
// the seed round's verdict and creates no output files.
func TestAdaptiveDryRunTouchesNothing(t *testing.T) {
	cache, _ := openTestStoreCache(t)
	baseDir := t.TempDir()
	res, err := Run(context.Background(), parseAdaptiveSpec(t), Options{
		Cache: cache, BaseDir: baseDir, DryRun: true,
	})
	if err != nil {
		t.Fatalf("dry run: %v", err)
	}
	if res.Campaigns[0].Trials != 0 {
		t.Errorf("dry run executed %d trials", res.Campaigns[0].Trials)
	}
	if _, err := filepath.Glob(filepath.Join(baseDir, "out", "*")); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(baseDir, "*"))
	for _, m := range matches {
		t.Errorf("dry run created %s", m)
	}
}
