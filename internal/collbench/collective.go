package collbench

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/meta"
	"opaquebench/internal/mpisim"
	"opaquebench/internal/netbench"
	"opaquebench/internal/netsim"
	"opaquebench/internal/xrand"
)

// Collective operation factor levels. PMB — the suite of Section II.B —
// "provides a framework to measure a subset of MPI operations"; the
// white-box engine covers the same ground with randomized sizes and raw
// logging, executing each collective on the protocol-level mpisim.Group.
const (
	OpBcast     = "bcast"
	OpAllreduce = "allreduce"
	OpBarrier   = "barrier"
)

// maxRanks bounds a communicator's size. The rank count comes from
// submitted specs, and a group keeps per-rank state, so an unbounded count
// would let a spec size an allocation that fails (or exhausts memory) at
// the first trial instead of being refused at validation.
const maxRanks = 1 << 16

// CollectiveConfig describes a collective campaign's fixed environment.
type CollectiveConfig struct {
	// Profile is the simulated network. Required.
	Profile *netsim.Profile
	// Ranks is the communicator size (default 8, at most 65536).
	Ranks int
	// Seed drives the noise stream.
	Seed uint64
	// SkewSec is the per-measurement random start skew across ranks
	// (real collectives never start synchronized). Default 2 us.
	SkewSec float64
	// AllreduceSwitchBytes is the algorithm switchover for allreduce:
	// binomial tree below it, ring at and above (mpisim.Allreduce). 0
	// disables the tree — every allreduce runs the ring.
	AllreduceSwitchBytes int
}

// CollectiveEngine implements core.Engine for collective campaigns. Each
// measurement runs on the engine's communicator reset to the state a fresh
// one starts in (warm groups would entangle consecutive measurements
// through their rank clocks), and every stochastic input — the group's
// skew stream and the regime noise draw — derives from (cfg.Seed,
// Trial.Seq) alone, so a trial's record is independent of execution
// history: designs shard across runner workers and replay in any order
// byte-identically to a serial run.
type CollectiveEngine struct {
	cfg CollectiveConfig
	// g is the engine's communicator, built by the first trial and reset
	// per trial so the hot path reuses its clocks and message queues.
	// Building it lazily keeps validating a spec free of any per-rank
	// allocation.
	g *mpisim.Group
	// noisePCG/noise are the engine-held generator reseeded per trial to
	// the exact state a fresh per-trial stream would start in, so the hot
	// path derives indexed noise without allocating.
	noisePCG *rand.PCG
	noise    *rand.Rand
	// ranksStr/extraRanks are the invariant annotation values, shared
	// between records; consumers treat Extra as read-only.
	ranksStr   string
	extraRanks map[string]string
}

// NewCollectiveEngine builds the engine.
func NewCollectiveEngine(cfg CollectiveConfig) (*CollectiveEngine, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("netbench: collective config needs a profile")
	}
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	if cfg.Ranks == 0 {
		cfg.Ranks = 8
	}
	if cfg.Ranks < 2 || cfg.Ranks > maxRanks {
		return nil, fmt.Errorf("netbench: collectives need 2 to %d ranks, got %d", maxRanks, cfg.Ranks)
	}
	if cfg.SkewSec <= 0 {
		cfg.SkewSec = 2e-6
	}
	if cfg.AllreduceSwitchBytes < 0 {
		return nil, fmt.Errorf("netbench: negative allreduce switch %d", cfg.AllreduceSwitchBytes)
	}
	pcg := rand.NewPCG(0, 0)
	ranksStr := strconv.Itoa(cfg.Ranks)
	return &CollectiveEngine{
		cfg:        cfg,
		noisePCG:   pcg,
		noise:      rand.New(pcg),
		ranksStr:   ranksStr,
		extraRanks: map[string]string{"ranks": ranksStr},
	}, nil
}

// Execute implements core.Engine: one timed collective, trial-indexed —
// the communicator seed and the regime-noise stream are pure functions of
// (cfg.Seed, t.Seq), never of a mutating engine counter.
func (e *CollectiveEngine) Execute(t doe.Trial) (core.RawRecord, error) {
	size, err := t.Point.Int(netbench.FactorSize)
	if err != nil {
		return core.RawRecord{}, err
	}
	op := t.Point.Get(netbench.FactorOp)
	if e.g == nil {
		if e.g, err = mpisim.NewGroup(e.cfg.Profile, e.cfg.Ranks, 0); err != nil {
			return core.RawRecord{}, err
		}
	}
	g := e.g
	g.Reset(xrand.DeriveIndexed(e.cfg.Seed, "netbench/collective/grp@", t.Seq))
	g.Jitter(e.cfg.SkewSec)

	// An allreduce below the rank count cannot split into non-empty ring
	// chunks; mpisim refuses to invent bytes, so the engine rounds the
	// payload up and records the effective size it actually measured.
	effSize := size
	if op == OpAllreduce && effSize < e.cfg.Ranks {
		effSize = e.cfg.Ranks
	}

	var dur float64
	switch op {
	case OpBcast:
		dur, err = g.Bcast(0, size)
	case OpAllreduce:
		dur, err = g.Allreduce(effSize, e.cfg.AllreduceSwitchBytes)
	case OpBarrier:
		dur, err = g.Barrier()
	default:
		return core.RawRecord{}, fmt.Errorf("netbench: unknown collective %q", op)
	}
	if err != nil {
		return core.RawRecord{}, err
	}
	// The regime noise applies once to the whole collective: OS jitter and
	// stack variability scale with the end-to-end duration.
	xrand.Reseed(e.noisePCG, xrand.DeriveIndexed(e.cfg.Seed, "netbench/collective/noise@", t.Seq))
	dur = e.cfg.Profile.RegimeFor(size).RTTNoise.Apply(e.noise, dur)

	rec := core.RawRecord{Point: t.Point, Value: dur, Seconds: dur}
	if effSize != size {
		rec.Annotate("ranks", e.ranksStr)
		rec.Annotate("allreduce_effective_size", strconv.Itoa(effSize))
	} else {
		rec.Extra = e.extraRanks
	}
	return rec, nil
}

// Environment implements core.Engine.
func (e *CollectiveEngine) Environment() *meta.Environment {
	env := meta.New()
	env.Set("network", e.cfg.Profile.Name)
	env.Setf("ranks", "%d", e.cfg.Ranks)
	env.Setf("seed", "%d", e.cfg.Seed)
	env.Set("engine", "collective")
	if e.cfg.AllreduceSwitchBytes > 0 {
		env.Setf("allreduce_switch_bytes", "%d", e.cfg.AllreduceSwitchBytes)
	}
	return env
}

// CollectiveFactory returns a core.EngineFactory producing independent
// collective engines for the configuration, one per runner worker — safe
// because the engine is trial-indexed by construction.
func CollectiveFactory(cfg CollectiveConfig) core.EngineFactory {
	return core.EngineFactoryFunc(func() (core.Engine, error) {
		return NewCollectiveEngine(cfg)
	})
}

// CollectiveDesign builds a randomized collective campaign: log-uniform
// sizes crossed with the requested operations.
func CollectiveDesign(seed uint64, nSizes, minSize, maxSize, reps int, ops []string, randomize bool) (*doe.Design, error) {
	if len(ops) == 0 {
		ops = []string{OpBcast, OpAllreduce}
	}
	for _, op := range ops {
		switch op {
		case OpBcast, OpAllreduce, OpBarrier:
		default:
			return nil, fmt.Errorf("netbench: unknown collective %q", op)
		}
	}
	sizes := doe.RandomSizes(seed, nSizes, minSize, maxSize)
	factors := []doe.Factor{
		doe.SizeFactor(netbench.FactorSize, sizes),
		doe.NewFactor(netbench.FactorOp, ops...),
	}
	return doe.FullFactorial(factors, doe.Options{Replicates: reps, Seed: seed, Randomize: randomize})
}
