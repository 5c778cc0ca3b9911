package enginetest_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/engine"
	"opaquebench/internal/engine/enginetest"
	"opaquebench/internal/meta"
	"opaquebench/internal/xrand"
)

// The toy engine: a minimal, fully in-contract Definition whose single
// breakage knob (mode) violates exactly one clause of the engine contract
// at a time. It is deliberately never registered — the global registry must
// hold only real engines — so the battery exercises it directly.
const (
	breakNothing   = ""          // in contract: the positive control
	breakHistory   = "history"   // records depend on prior Execute calls
	breakPoint     = "point"     // Execute writes into its trial's point
	breakCanonical = "canonical" // Decode is not idempotent
	breakBuild     = "build"     // Build varies between same-seed calls
	breakRefine    = "refine"    // Refine ignores levels/bracket/origin
	breakDirection = "direction" // HigherIsBetter flip-flops
)

type toySpec struct {
	Levels []int `json:"levels,omitempty"`
	Reps   int   `json:"reps,omitempty"`

	mode string
}

func (s toySpec) levels() []int {
	if len(s.Levels) == 0 {
		return []int{10, 100, 1000}
	}
	return s.Levels
}

func (s toySpec) reps() int {
	if s.Reps <= 0 {
		return 2
	}
	return s.Reps
}

func (s toySpec) ZoomFactor() string { return "x" }

func (s toySpec) Refine(seed uint64, levels []int, reps int) (*doe.Design, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("toy: refine needs at least one level")
	}
	if reps <= 0 {
		reps = s.reps()
	}
	origin := doe.OriginZoom
	if s.mode == breakRefine {
		// Smuggle in a level far outside any bracket and drop the zoom
		// provenance — two distinct contract violations at once.
		levels = append(append([]int(nil), levels...), 1<<30)
		origin = ""
	}
	return doe.FullFactorial([]doe.Factor{doe.IntFactor("x", levels...)},
		doe.Options{Replicates: reps, Seed: seed, Randomize: true, Origin: origin})
}

type toyDef struct {
	mode   string
	builds int  // Build call counter, driving the breakBuild drift
	dirPar bool // flip-flop state for breakDirection
}

func (d *toyDef) Name() string { return "toybench" }

func (d *toyDef) HigherIsBetter() bool {
	if d.mode == breakDirection {
		d.dirPar = !d.dirPar
		return d.dirPar
	}
	return true
}

func (d *toyDef) Decode(raw json.RawMessage) (engine.Spec, error) {
	var s toySpec
	if err := engine.StrictDecode(raw, &s); err != nil {
		return nil, err
	}
	if d.mode == breakCanonical {
		// Every decode shifts the spec, so canonicalize → re-decode never
		// reaches a fixed point.
		s.Reps = s.reps() + 1
	}
	s.mode = d.mode
	return s, nil
}

func (d *toyDef) Build(spec engine.Spec, seed uint64) (core.EngineFactory, *doe.Design, error) {
	s, ok := spec.(toySpec)
	if !ok {
		return nil, nil, fmt.Errorf("toy: spec is %T", spec)
	}
	if d.mode == breakBuild {
		d.builds++
		seed += uint64(d.builds) // a different design every call
	}
	design, err := doe.FullFactorial([]doe.Factor{doe.IntFactor("x", s.levels()...)},
		doe.Options{Replicates: s.reps(), Seed: seed, Randomize: true})
	if err != nil {
		return nil, nil, err
	}
	history, writePoint := d.mode == breakHistory, d.mode == breakPoint
	factory := core.EngineFactoryFunc(func() (core.Engine, error) {
		return &toyEngine{seed: seed, history: history, writePoint: writePoint}, nil
	})
	return factory, design, nil
}

type toyEngine struct {
	seed       uint64
	history    bool
	writePoint bool
	calls      int
}

func (e *toyEngine) Environment() *meta.Environment { return meta.New() }

func (e *toyEngine) Execute(t doe.Trial) (core.RawRecord, error) {
	x, err := t.Point.Float("x")
	if err != nil {
		return core.RawRecord{}, err
	}
	// Trial-indexed by construction: everything derives from (seed, Seq).
	v := x + float64(xrand.DeriveIndexed(e.seed, "toy", t.Seq)%1000)/1000
	if e.history {
		// The classic violation: state accumulated across Execute calls
		// leaks into the record, so records depend on execution order.
		v += float64(e.calls)
		e.calls++
	}
	if e.writePoint {
		// Scribbling a derived value into the point: every replicate
		// sharing this map sees it.
		t.Point["x2"] = doe.Level(fmt.Sprint(2 * x))
	}
	return core.RawRecord{Value: v, Seconds: v * 1e-6, At: float64(t.Seq)}, nil
}

// TestToyPassesBattery is the positive control: the unbroken toy satisfies
// every check, so the negative tests below fail for the injected reason and
// not for some unrelated contract gap in the toy itself.
func TestToyPassesBattery(t *testing.T) {
	enginetest.Conformance(t, &toyDef{}, nil)
}

// TestBrokenToyFailsEachCheck proves every check has teeth: for each check
// of the battery there is a breakage mode that makes exactly that
// violation, and the check must reject it.
func TestBrokenToyFailsEachCheck(t *testing.T) {
	breaks := map[string]string{
		"parallel-determinism":  breakHistory,
		"point-read-only":       breakPoint,
		"indexed-vs-sequential": breakHistory,
		"canonical-fixed-point": breakCanonical,
		"build-determinism":     breakBuild,
		"refine-contract":       breakRefine,
		"direction":             breakDirection,
	}
	checks := enginetest.Checks()
	if len(checks) != len(breaks) {
		t.Fatalf("battery has %d checks, negative table covers %d — extend the table", len(checks), len(breaks))
	}
	for _, c := range checks {
		mode, ok := breaks[c.Name]
		if !ok {
			t.Fatalf("no breakage mode for check %q — extend the table", c.Name)
		}
		t.Run(c.Name, func(t *testing.T) {
			err := c.Fn(&toyDef{mode: mode}, nil)
			if err == nil {
				t.Fatalf("check %q passed a toy engine broken via %q", c.Name, mode)
			}
			t.Logf("correctly rejected: %v", err)
		})
	}
}
