// Package collbench owns the MPI collective campaigns: timed
// bcast/allreduce/barrier operations on the protocol-level mpisim.Group,
// with log-uniform randomized sizes and raw logging. Its central phenomenon is the allreduce algorithm
// switchover — binomial tree below switch_bytes, ring at and above — the
// collective analogue of the point-to-point protocol breakpoints, which
// adaptive refinement localizes by zooming the size factor.
//
// The engine (CollectiveEngine, CollectiveFactory, CollectiveDesign) reuses
// netbench's size and op factors; the declarative Spec and the adapt.Refiner
// hooks make the campaigns buildable through the engine registry, the only
// front end collectives have.
package collbench

import (
	"fmt"

	"opaquebench/internal/doe"
	"opaquebench/internal/netbench"
	"opaquebench/internal/netsim"
)

// Defaults of a zero Spec, shared by FromSpec and Refine so seed and zoom
// rounds can never drift.
const (
	defaultReps = 4
	// defaultSwitchBytes is the allreduce tree/ring switchover, placed at
	// the taurus eager/detached protocol boundary so the two breakpoint
	// families can be told apart by operation.
	defaultSwitchBytes = 16384
)

// defaultOps lists the collective operations of a zero Spec. Barrier is
// excluded by default: it carries no size dependence to refine.
func defaultOps() []string { return []string{OpBcast, OpAllreduce} }

// Spec is the declarative form of a collective campaign — the engine half
// of a suite file's campaign entry (see internal/suite). A zero Spec is an
// 8-rank Taurus campaign over bcast and allreduce with the tree/ring
// switchover at 16 KiB.
type Spec struct {
	// Profile names the simulated network (default "taurus").
	Profile string `json:"profile,omitempty"`
	// Ranks is the communicator size (default 8, at most 65536).
	Ranks int `json:"ranks,omitempty"`
	// N is the number of log-uniform message sizes (default 100).
	N int `json:"n,omitempty"`
	// Min is the minimum message size in bytes (default 16).
	Min int `json:"min,omitempty"`
	// Max is the maximum message size in bytes (default 1 MiB).
	Max int `json:"max,omitempty"`
	// Reps is the replicate count per (size, op) (default 4).
	Reps int `json:"reps,omitempty"`
	// Ops lists the collective operations (default bcast, allreduce).
	Ops []string `json:"ops,omitempty"`
	// SwitchBytes is the allreduce tree/ring switchover; 0 means the
	// 16 KiB default, negative disables the tree (ring everywhere).
	SwitchBytes int `json:"switch_bytes,omitempty"`
}

func (s Spec) withDefaults() Spec {
	if s.Profile == "" {
		s.Profile = "taurus"
	}
	if s.Ranks == 0 {
		s.Ranks = 8
	}
	if s.N <= 0 {
		s.N = 100
	}
	if s.Min <= 0 {
		s.Min = 16
	}
	if s.Max <= 0 {
		s.Max = 1 << 20
	}
	if s.Reps <= 0 {
		s.Reps = defaultReps
	}
	if len(s.Ops) == 0 {
		s.Ops = defaultOps()
	}
	if s.SwitchBytes == 0 {
		s.SwitchBytes = defaultSwitchBytes
	}
	return s
}

// FromSpec resolves a declarative campaign into the engine configuration
// and the materialized design, both fully determined by (spec, seed).
func FromSpec(s Spec, seed uint64) (CollectiveConfig, *doe.Design, error) {
	s = s.withDefaults()
	p, err := netsim.ProfileByName(s.Profile)
	if err != nil {
		return CollectiveConfig{}, nil, err
	}
	design, err := CollectiveDesign(seed, s.N, s.Min, s.Max, s.Reps, s.Ops, true)
	if err != nil {
		return CollectiveConfig{}, nil, err
	}
	cfg := CollectiveConfig{
		Profile: p,
		Ranks:   s.Ranks,
		Seed:    seed,
	}
	if s.SwitchBytes > 0 {
		cfg.AllreduceSwitchBytes = s.SwitchBytes
	}
	// Validate the rest (rank count) eagerly, not at first worker start.
	if _, err := NewCollectiveEngine(cfg); err != nil {
		return CollectiveConfig{}, nil, err
	}
	return cfg, design, nil
}

// ZoomFactor names the numeric factor adaptive refinement zooms: the
// message size, whose algorithm-switchover breakpoints (tree/ring, plus
// the underlying point-to-point protocol changes) are the engine's central
// phenomenon. Part of the adapt.Refiner hook set.
func (s Spec) ZoomFactor() string { return netbench.FactorSize }

// Refine materializes one adaptive refinement round's zoom design: the
// given refined message sizes crossed with the campaign's operation set,
// replicated (reps, or the spec's replicate count when reps <= 0),
// randomized under the round seed, every trial stamped doe.OriginZoom.
func (s Spec) Refine(seed uint64, levels []int, reps int) (*doe.Design, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("collbench: refine needs at least one size level")
	}
	for _, l := range levels {
		if l < 1 {
			return nil, fmt.Errorf("collbench: refine size %d is not positive", l)
		}
	}
	if reps <= 0 {
		reps = s.Reps
	}
	if reps <= 0 {
		reps = defaultReps
	}
	ops := s.Ops
	if len(ops) == 0 {
		ops = defaultOps()
	}
	for _, op := range ops {
		switch op {
		case OpBcast, OpAllreduce, OpBarrier:
		default:
			return nil, fmt.Errorf("collbench: unknown collective %q", op)
		}
	}
	factors := []doe.Factor{
		doe.IntFactor(netbench.FactorSize, levels...),
		doe.NewFactor(netbench.FactorOp, ops...),
	}
	return doe.FullFactorial(factors,
		doe.Options{Replicates: reps, Seed: seed, Randomize: true, Origin: doe.OriginZoom})
}
