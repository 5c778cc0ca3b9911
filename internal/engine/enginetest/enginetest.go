// Package enginetest is the conformance battery for engine.Definition
// implementations: seven executable checks covering the determinism and
// replay discipline every registered engine must uphold — byte-identical
// serial-vs-parallel output, read-only trial points, trial-indexed
// (history-independent) records, idempotent spec decoding, same-seed build
// determinism, the adaptive refine-hook contract, and a stable metric
// direction. New engines run the whole battery with one Conformance call;
// the package's own tests prove each check catches its violation by feeding
// it a deliberately broken toy engine.
package enginetest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/engine"
	"opaquebench/internal/runner"
)

// checkSeed is the campaign seed the battery runs under, and refineSeed the
// round seed fed to the refine hook. Arbitrary but fixed: every contract
// here must hold for any seed, so one suffices.
const (
	checkSeed  uint64 = 77
	refineSeed uint64 = 78
	refineReps        = 2
)

// workerCounts are the worker counts the parallel-determinism check
// compares, mirroring the repository-wide 1/4/8 convention.
var workerCounts = []int{1, 4, 8}

// Check is one named conformance assertion over an engine definition.
type Check struct {
	// Name identifies the check in test output.
	Name string
	// Fn runs the check against def configured by config (nil means the
	// engine's defaults) and returns nil iff the contract holds.
	Fn func(def engine.Definition, config json.RawMessage) error
}

// Checks returns the full battery in run order.
func Checks() []Check {
	return []Check{
		{"parallel-determinism", CheckParallelDeterminism},
		{"point-read-only", CheckPointReadOnly},
		{"indexed-vs-sequential", CheckIndexedSequential},
		{"canonical-fixed-point", CheckCanonicalFixedPoint},
		{"build-determinism", CheckBuildDeterminism},
		{"refine-contract", CheckRefineContract},
		{"direction", CheckDirection},
	}
}

// Conformance runs the whole battery against one engine definition, each
// check as a subtest. config is the raw engine config the battery builds
// campaigns from; nil exercises the engine's defaults. Prefer a small
// config: the battery executes the design several times over.
func Conformance(t *testing.T, def engine.Definition, config json.RawMessage) {
	t.Helper()
	for _, c := range Checks() {
		t.Run(c.Name, func(t *testing.T) {
			if err := c.Fn(def, config); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// decodeAndBuild is the common front half of the execution checks.
func decodeAndBuild(def engine.Definition, config json.RawMessage) (engine.Spec, core.EngineFactory, *doe.Design, error) {
	spec, err := def.Decode(config)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("decode config: %w", err)
	}
	factory, design, err := def.Build(spec, checkSeed)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("build: %w", err)
	}
	if factory == nil || design == nil {
		return nil, nil, nil, fmt.Errorf("build returned factory %v, design %v", factory, design)
	}
	if design.Size() == 0 {
		return nil, nil, nil, fmt.Errorf("build produced an empty design")
	}
	return spec, factory, design, nil
}

// runToSinks executes the design through the parallel runner, capturing the
// streamed CSV and JSONL bytes.
func runToSinks(design *doe.Design, factory core.EngineFactory, workers int) (csv, jsonl []byte, err error) {
	var csvBuf, jsonlBuf bytes.Buffer
	_, err = runner.Run(context.Background(), design, factory, runner.Config{
		Workers: workers,
		Sinks:   []runner.RecordSink{runner.NewCSVSink(&csvBuf), runner.NewJSONLSink(&jsonlBuf)},
	})
	return csvBuf.Bytes(), jsonlBuf.Bytes(), err
}

// CheckParallelDeterminism asserts the engine's streamed campaign output is
// byte-identical across worker counts 1, 4 and 8 — the sharded-equals-
// serial guarantee the whole cache/replay stack rests on.
func CheckParallelDeterminism(def engine.Definition, config json.RawMessage) error {
	_, factory, design, err := decodeAndBuild(def, config)
	if err != nil {
		return err
	}
	var refCSV, refJSONL []byte
	for i, w := range workerCounts {
		csv, jsonl, err := runToSinks(design, factory, w)
		if err != nil {
			return fmt.Errorf("workers %d: %w", w, err)
		}
		if i == 0 {
			refCSV, refJSONL = csv, jsonl
			continue
		}
		if !bytes.Equal(csv, refCSV) {
			return fmt.Errorf("CSV output differs between workers %d and workers %d", workerCounts[0], w)
		}
		if !bytes.Equal(jsonl, refJSONL) {
			return fmt.Errorf("JSONL output differs between workers %d and workers %d", workerCounts[0], w)
		}
	}
	return nil
}

// CheckPointReadOnly asserts Execute leaves every trial's point as it found
// it. A design hands all replicates of a factor combination one shared
// point map (doe.Trial.Point), so an engine that writes into its point
// changes the trials after it and, sharded, races the workers running
// them. One engine first executes the design on the calling goroutine,
// each point compared with its snapshot after its trial, so a writer is
// caught before any concurrent run; then the runner executes it at worker
// counts 1, 4 and 8, points compared after each run.
func CheckPointReadOnly(def engine.Definition, config json.RawMessage) error {
	_, factory, design, err := decodeAndBuild(def, config)
	if err != nil {
		return err
	}
	snapshot := make([]doe.Point, design.Size())
	for i, t := range design.Trials {
		snapshot[i] = t.Point.Clone()
	}
	eng, err := factory.NewEngine()
	if err != nil {
		return fmt.Errorf("new engine: %w", err)
	}
	for i, t := range design.Trials {
		if _, err := eng.Execute(t); err != nil {
			return fmt.Errorf("trial %d: %w", t.Seq, err)
		}
		if !reflect.DeepEqual(t.Point, snapshot[i]) {
			return fmt.Errorf("trial %d: Execute changed its point from %v to %v", t.Seq, snapshot[i], t.Point)
		}
	}
	for _, w := range workerCounts {
		if _, _, err := runToSinks(design, factory, w); err != nil {
			return fmt.Errorf("workers %d: %w", w, err)
		}
		for i, t := range design.Trials {
			if !reflect.DeepEqual(t.Point, snapshot[i]) {
				return fmt.Errorf("workers %d: trial %d point changed from %v to %v", w, t.Seq, snapshot[i], t.Point)
			}
		}
	}
	return nil
}

// CheckIndexedSequential asserts factory-made engines are trial-indexed: one
// engine executing the design in order, a sharded runner.Run, and a fresh
// engine executing the design in reverse order all produce identical
// records. Any history dependence — state carried from one Execute to the
// next that leaks into a record — breaks at least one of the three.
func CheckIndexedSequential(def engine.Definition, config json.RawMessage) error {
	_, factory, design, err := decodeAndBuild(def, config)
	if err != nil {
		return err
	}
	n := design.Size()
	inOrder, reverse := make([]int, n), make([]int, n)
	for i := range inOrder {
		inOrder[i], reverse[i] = i, n-1-i
	}
	serial, err := executeInOrder(factory, design, inOrder)
	if err != nil {
		return fmt.Errorf("sequential run: %w", err)
	}
	sharded, err := runner.Run(context.Background(), design, factory, runner.Config{Workers: 4})
	if err != nil {
		return fmt.Errorf("sharded run: %w", err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], sharded.Records[i]) {
			return fmt.Errorf("trial %d: sequential record %+v != sharded record %+v",
				i, serial[i], sharded.Records[i])
		}
	}
	reversed, err := executeInOrder(factory, design, reverse)
	if err != nil {
		return fmt.Errorf("reverse-order run: %w", err)
	}
	for i := range serial {
		if !reflect.DeepEqual(reversed[i], serial[i]) {
			return fmt.Errorf("trial %d record depends on execution order: in-order %+v, reverse-order %+v",
				design.Trials[i].Seq, serial[i], reversed[i])
		}
	}
	return nil
}

// executeInOrder is the battery's reference executor, independent of the
// runner under test: one fresh engine executes the design's trials in the
// given index order, and each record, stamped with its trial's Seq, Rep and
// point as the runner stamps it, lands at its design position.
func executeInOrder(factory core.EngineFactory, design *doe.Design, order []int) ([]core.RawRecord, error) {
	eng, err := factory.NewEngine()
	if err != nil {
		return nil, fmt.Errorf("new engine: %w", err)
	}
	recs := make([]core.RawRecord, design.Size())
	for _, i := range order {
		t := design.Trials[i]
		rec, err := eng.Execute(t)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", t.Seq, err)
		}
		rec.Seq, rec.Rep = t.Seq, t.Rep
		if rec.Point == nil {
			rec.Point = t.Point
		}
		recs[i] = rec
	}
	return recs, nil
}

// CheckCanonicalFixedPoint asserts decoding is idempotent: decode →
// canonicalize → re-decode → re-canonicalize reaches a fixed point in one
// step, for both the given config and the engine's defaults (nil). Without
// it the same study could hash two ways.
func CheckCanonicalFixedPoint(def engine.Definition, config json.RawMessage) error {
	for _, raw := range []json.RawMessage{config, nil} {
		spec, err := def.Decode(raw)
		if err != nil {
			return fmt.Errorf("decode %q: %w", raw, err)
		}
		canon, err := engine.Canonical(spec)
		if err != nil {
			return fmt.Errorf("canonicalize: %w", err)
		}
		again, err := def.Decode(canon)
		if err != nil {
			return fmt.Errorf("canonical form %s rejected: %w", canon, err)
		}
		canon2, err := engine.Canonical(again)
		if err != nil {
			return fmt.Errorf("re-canonicalize: %w", err)
		}
		if !bytes.Equal(canon, canon2) {
			return fmt.Errorf("canonicalization is not a fixed point:\nfirst:  %s\nsecond: %s", canon, canon2)
		}
		if !reflect.DeepEqual(spec, again) {
			return fmt.Errorf("re-decoded spec differs: %+v vs %+v", spec, again)
		}
	}
	return nil
}

// CheckBuildDeterminism asserts Build is a pure function of (spec, seed):
// two builds yield byte-identical design CSVs and engines whose executed
// records agree trial for trial.
func CheckBuildDeterminism(def engine.Definition, config json.RawMessage) error {
	spec, err := def.Decode(config)
	if err != nil {
		return fmt.Errorf("decode config: %w", err)
	}
	f1, d1, err := def.Build(spec, checkSeed)
	if err != nil {
		return fmt.Errorf("first build: %w", err)
	}
	f2, d2, err := def.Build(spec, checkSeed)
	if err != nil {
		return fmt.Errorf("second build: %w", err)
	}
	csv1, err := designCSV(d1)
	if err != nil {
		return err
	}
	csv2, err := designCSV(d2)
	if err != nil {
		return err
	}
	if !bytes.Equal(csv1, csv2) {
		return fmt.Errorf("two same-seed builds materialized different designs")
	}
	e1, err := f1.NewEngine()
	if err != nil {
		return fmt.Errorf("new engine: %w", err)
	}
	e2, err := f2.NewEngine()
	if err != nil {
		return fmt.Errorf("new engine: %w", err)
	}
	n := d1.Size()
	if n > 16 {
		n = 16
	}
	for i := 0; i < n; i++ {
		t := d1.Trials[i]
		r1, err1 := e1.Execute(t)
		r2, err2 := e2.Execute(t)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("trial %d: execute errors %v / %v", t.Seq, err1, err2)
		}
		if !reflect.DeepEqual(r1, r2) {
			return fmt.Errorf("trial %d: two same-seed builds disagree: %+v vs %+v", t.Seq, r1, r2)
		}
	}
	return nil
}

// CheckRefineContract asserts the engine's adaptive refine hook honors the
// planner's interface: the zoom factor names a numeric factor of the seed
// design, a refined design carries exactly the requested levels (all
// strictly inside the chosen bracket), every trial is stamped
// doe.OriginZoom and replicated the requested number of times, refinement
// is deterministic in its seed, and an empty level set is an error.
func CheckRefineContract(def engine.Definition, config json.RawMessage) error {
	spec, _, design, err := decodeAndBuild(def, config)
	if err != nil {
		return err
	}
	factor := spec.ZoomFactor()
	if factor == "" {
		return fmt.Errorf("ZoomFactor is empty")
	}
	levels, err := factorLevels(design, factor)
	if err != nil {
		return err
	}
	if len(levels) < 2 {
		return fmt.Errorf("seed design has %d distinct %q levels; the refine contract needs at least 2", len(levels), factor)
	}
	lo, hi := widestBracket(levels)
	zoom := insideLevels(lo, hi, 3)
	if len(zoom) == 0 {
		return fmt.Errorf("bracket (%d, %d) of factor %q leaves no room to zoom; use a config with wider-spaced levels", lo, hi, factor)
	}

	refined, err := spec.Refine(refineSeed, zoom, refineReps)
	if err != nil {
		return fmt.Errorf("refine: %w", err)
	}
	if refined == nil || refined.Size() == 0 {
		return fmt.Errorf("refine returned an empty design")
	}
	perPoint := map[string]int{}
	for _, t := range refined.Trials {
		if t.Origin != doe.OriginZoom {
			return fmt.Errorf("refined trial %d has origin %q, want %q", t.Seq, t.Origin, doe.OriginZoom)
		}
		perPoint[t.Point.Key()]++
	}
	for key, n := range perPoint {
		if n != refineReps {
			return fmt.Errorf("refined point %s replicated %d times, want %d", key, n, refineReps)
		}
	}
	got, err := factorLevels(refined, factor)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, zoom) {
		return fmt.Errorf("refined design carries %q levels %v, want exactly the requested %v", factor, got, zoom)
	}
	for _, l := range got {
		if l <= lo || l >= hi {
			return fmt.Errorf("refined level %d escapes the bracket (%d, %d)", l, lo, hi)
		}
	}

	again, err := spec.Refine(refineSeed, zoom, refineReps)
	if err != nil {
		return fmt.Errorf("second refine: %w", err)
	}
	csv1, err := designCSV(refined)
	if err != nil {
		return err
	}
	csv2, err := designCSV(again)
	if err != nil {
		return err
	}
	if !bytes.Equal(csv1, csv2) {
		return fmt.Errorf("two same-seed refinements materialized different designs")
	}

	if _, err := spec.Refine(refineSeed, nil, refineReps); err == nil {
		return fmt.Errorf("refine accepted an empty level set")
	}
	return nil
}

// CheckDirection asserts the definition declares a metric direction and
// that repeated queries agree — the comparator consults it once per
// campaign pair, so a flip-flopping answer would make verdicts depend on
// evaluation order.
func CheckDirection(def engine.Definition, config json.RawMessage) error {
	first := def.HigherIsBetter()
	for i := 0; i < 4; i++ {
		if def.HigherIsBetter() != first {
			return fmt.Errorf("HigherIsBetter flip-flops between calls")
		}
	}
	return nil
}

// designCSV materializes a design for byte comparison.
func designCSV(d *doe.Design) ([]byte, error) {
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		return nil, fmt.Errorf("materialize design: %w", err)
	}
	return buf.Bytes(), nil
}

// factorLevels collects the distinct integer levels of the named factor
// across the design's trials, sorted ascending.
func factorLevels(d *doe.Design, factor string) ([]int, error) {
	seen := map[int]bool{}
	for _, t := range d.Trials {
		v, err := t.Point.Int(factor)
		if err != nil {
			return nil, fmt.Errorf("trial %d: factor %q: %w", t.Seq, factor, err)
		}
		seen[v] = true
	}
	levels := make([]int, 0, len(seen))
	for v := range seen {
		levels = append(levels, v)
	}
	sort.Ints(levels)
	return levels, nil
}

// widestBracket picks the adjacent level pair with the largest ratio — the
// bracket with the most interior room on the log scale engines grid over.
func widestBracket(levels []int) (lo, hi int) {
	lo, hi = levels[0], levels[1]
	best := float64(hi) / float64(lo)
	for i := 1; i+1 < len(levels); i++ {
		if r := float64(levels[i+1]) / float64(levels[i]); r > best {
			best, lo, hi = r, levels[i], levels[i+1]
		}
	}
	return lo, hi
}

// insideLevels generates up to k log-spaced integer levels strictly inside
// (lo, hi), deduplicated — the shape adapt's zoom planner requests.
func insideLevels(lo, hi, k int) []int {
	var out []int
	last := lo
	for j := 1; j <= k; j++ {
		frac := float64(j) / float64(k+1)
		v := int(float64(lo)*math.Pow(float64(hi)/float64(lo), frac) + 0.5)
		if v <= last || v >= hi {
			continue
		}
		out = append(out, v)
		last = v
	}
	return out
}
