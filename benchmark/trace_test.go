package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"opaquebench/internal/engine"
	"opaquebench/internal/runner"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},  // 30
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a: adds 20
		{Name: "c", Parent: 0, Start: 90, End: 120}, // clipped to the parent: adds 10
		{Name: "d", Parent: 1, Start: 15, End: 20},  // a's child
		{Name: "e", Parent: 0, Start: 45, End: 50},  // inside b: adds nothing
		{Name: "root", Parent: -1, Start: 200, End: 210},
	}
	want := []int64{
		100 - (60 - 10) - (100 - 90), // op: children cover [10,60] and [90,100]
		30 - 5,                       // a minus d
		30, 30, 5, 5, 10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// The trace-<engine> wrapper must not change a single output byte, for
// every registered engine.
func TestTraceWrapperByteIdentical(t *testing.T) {
	// The workloads' own campaign configs keep each engine quick; an engine
	// no workload uses runs its defaults.
	configs := map[string]string{}
	for _, c := range warmCampaigns {
		if _, ok := configs[c.engine]; !ok {
			configs[c.engine] = c.config
		}
	}
	engines := 0
	for _, name := range engine.Names() {
		if strings.HasPrefix(name, tracePrefix) {
			continue
		}
		engines++
		plain, ok := engine.Lookup(name)
		if !ok {
			t.Fatalf("engine %s vanished", name)
		}
		traced, ok := engine.Lookup(engineName(name, true))
		if !ok {
			t.Fatalf("engine %s has no trace wrapper", name)
		}
		if traced.HigherIsBetter() != plain.HigherIsBetter() {
			t.Errorf("%s: wrapper changes the metric's direction", name)
		}
		run := func(def engine.Definition) (string, string) {
			spec, err := def.Decode([]byte(configs[name]))
			if err != nil {
				t.Fatalf("%s: decode defaults: %v", def.Name(), err)
			}
			factory, design, err := def.Build(spec, 20170529)
			if err != nil {
				t.Fatalf("%s: build: %v", def.Name(), err)
			}
			design.Trials = design.Trials[:min(len(design.Trials), 40)]
			var csv, jsonl bytes.Buffer
			_, err = runner.Run(context.Background(), design, factory, runner.Config{Workers: 2,
				Sinks: []runner.RecordSink{runner.NewCSVSink(&csv), runner.NewJSONLSink(&jsonl)}})
			if err != nil {
				t.Fatalf("%s: run: %v", def.Name(), err)
			}
			return csv.String(), jsonl.String()
		}
		csv0, jsonl0 := run(plain)
		csv1, jsonl1 := run(traced)
		if csv0 != csv1 || jsonl0 != jsonl1 {
			t.Errorf("%s: traced outputs differ from untraced ones", name)
		}
		if csv0 == "" {
			t.Errorf("%s: empty CSV", name)
		}
	}
	if engines < 5 {
		t.Errorf("only %d engines registered", engines)
	}
}
