package netbench

import (
	"fmt"

	"opaquebench/internal/doe"
	"opaquebench/internal/netsim"
)

// defaultReps is the replicate count of a zero Spec, shared by FromSpec
// and Refine so seed and zoom rounds can never drift.
const defaultReps = 4

// Spec is the declarative form of a point-to-point network campaign — the
// engine half of a suite file's campaign entry (see internal/suite). Field
// semantics and defaults match the cmd/netbench flags of the same names; a
// zero Spec is the default Taurus campaign. Collective campaigns are the
// collbench engine's.
type Spec struct {
	// Profile names the simulated network (default "taurus").
	Profile string `json:"profile,omitempty"`
	// N is the number of log-uniform message sizes (default 200).
	N int `json:"n,omitempty"`
	// Min is the minimum message size in bytes (default 16).
	Min int `json:"min,omitempty"`
	// Max is the maximum message size in bytes (default 2 MiB).
	Max int `json:"max,omitempty"`
	// Reps is the replicate count per (size, op) (default 4).
	Reps int `json:"reps,omitempty"`
	// PerturbFactor stretches durations inside the perturbation window:
	// 0 (the default) or 1 means no perturbation, values > 1 stretch;
	// negative values and values in (0, 1) are rejected.
	PerturbFactor float64 `json:"perturb_factor,omitempty"`
	// PerturbStart is the perturbation window start (virtual seconds).
	PerturbStart float64 `json:"perturb_start,omitempty"`
	// PerturbEnd is the perturbation window end (virtual seconds).
	PerturbEnd float64 `json:"perturb_end,omitempty"`
}

// FromSpec resolves a declarative campaign into the engine configuration
// and the materialized design, both fully determined by (spec, seed). It is
// how the suite orchestrator builds netbench campaigns without going
// through the cmd/netbench flag parser.
func FromSpec(s Spec, seed uint64) (Config, *doe.Design, error) {
	if s.Profile == "" {
		s.Profile = "taurus"
	}
	if s.N <= 0 {
		s.N = 200
	}
	if s.Min <= 0 {
		s.Min = 16
	}
	if s.Max <= 0 {
		s.Max = 2 << 20
	}
	if s.Reps <= 0 {
		s.Reps = defaultReps
	}
	if s.PerturbFactor < 0 || (s.PerturbFactor > 0 && s.PerturbFactor < 1) {
		return Config{}, nil, fmt.Errorf("netbench: perturb_factor must be 0 (none) or >= 1, got %v", s.PerturbFactor)
	}
	p, err := netsim.ProfileByName(s.Profile)
	if err != nil {
		return Config{}, nil, err
	}
	design, err := Design(seed, s.N, s.Min, s.Max, s.Reps, nil, true)
	if err != nil {
		return Config{}, nil, err
	}
	cfg := Config{Profile: p, Seed: seed}
	if s.PerturbFactor > 1 {
		cfg.Perturber = netsim.NewPerturber(s.PerturbFactor,
			netsim.Window{Start: s.PerturbStart, End: s.PerturbEnd})
	}
	return cfg, design, nil
}

// ZoomFactor names the numeric factor adaptive refinement zooms: the
// message size, whose protocol-change breakpoints (eager/rendezvous) are
// the engine's central phenomenon. Part of the adapt.Refiner hook set.
func (s Spec) ZoomFactor() string { return FactorSize }

// Refine materializes one adaptive refinement round's zoom design: the
// given refined message sizes crossed with the standard operation set,
// replicated (reps, or the spec's replicate count when reps <= 0),
// randomized under the round seed, every trial stamped doe.OriginZoom.
// Unlike the seed design's log-uniform random sizes, refined levels are
// explicit — the planner has already chosen where to look.
func (s Spec) Refine(seed uint64, levels []int, reps int) (*doe.Design, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("netbench: refine needs at least one size level")
	}
	for _, l := range levels {
		if l < 1 {
			return nil, fmt.Errorf("netbench: refine size %d is not positive", l)
		}
	}
	if reps <= 0 {
		reps = s.Reps
	}
	if reps <= 0 {
		reps = defaultReps
	}
	ops := []netsim.Op{netsim.OpSend, netsim.OpRecv, netsim.OpPingPong}
	opLevels := make([]string, len(ops))
	for i, op := range ops {
		opLevels[i] = string(op)
	}
	factors := []doe.Factor{
		doe.IntFactor(FactorSize, levels...),
		doe.NewFactor(FactorOp, opLevels...),
	}
	return doe.FullFactorial(factors,
		doe.Options{Replicates: reps, Seed: seed, Randomize: true, Origin: doe.OriginZoom})
}
