package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every workload runs 3 ops with verification on, untraced and traced, and
// reports every metric it promises. serve-loop runs 3W+1 ops, so at least
// one of its W clients reaches its 4th op, a resubmission, and the
// duplicate checks run.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			ops := 3
			if wl.name == "serve-loop" {
				ops = 3*currentShape().W + 1
			}
			res, err := runWorkload(context.Background(), runConfig{workload: wl.name, seed: 7, minOps: ops,
				setups: 1, trace: traced})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", wl.name, traced, err)
			}
			if res.Attempted < ops || res.Failed != 0 {
				t.Fatalf("%s (traced %v): %d ops, %d failed: %v", wl.name, traced, res.Attempted, res.Failed, res.Failures)
			}
			if wl.name == "serve-loop" {
				dups := 0
				for _, s := range res.samples {
					if s.Duplicate {
						dups++
					}
				}
				if dups == 0 {
					t.Errorf("serve-loop (traced %v): no op was a resubmission", traced)
				}
				if traced && res.Layers["serve.dedupe_frac"].Value <= 0 {
					t.Errorf("serve-loop: serve.dedupe_frac = %v, want > 0", res.Layers["serve.dedupe_frac"].Value)
				}
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v (present %v), want > 0", wl.name, d.Name, v.Value, ok)
				}
			}
			if !traced {
				continue
			}
			for _, d := range perLayer {
				if _, ok := res.Layers[d.Name]; !ok {
					t.Errorf("%s: per-layer %s missing", wl.name, d.Name)
				}
			}
			for _, name := range []string{"suite.plan_ms", "store.get_us", "runner.sink_us_per_record", "engine.execute_us", "engine.trials_per_op"} {
				if res.Layers[name].Value <= 0 {
					t.Errorf("%s: per-layer %s = %v, want > 0", wl.name, name, res.Layers[name].Value)
				}
			}
		}
	}
}

// The single-workload command ends its output with the one-line JSON
// summary, and writes the raw per-op samples when asked.
func TestRunOneSummaryLine(t *testing.T) {
	out := t.TempDir()
	cfg := runConfig{workload: "light-cold", seed: 3, minOps: 3, setups: 1}
	var stdout, stderr bytes.Buffer
	if err := runOne(context.Background(), cfg, out, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var summary struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("last line is not the JSON summary: %v", err)
	}
	if !summary.Correct || summary.Attempted < 3 || summary.Failed != 0 || len(summary.Metrics) != len(endToEnd) {
		t.Errorf("summary %+v", summary)
	}
	for _, f := range []string{"light-cold.ops.jsonl", "light-cold.result.json"} {
		if _, err := os.Stat(filepath.Join(out, f)); err != nil {
			t.Error(err)
		}
	}
}
