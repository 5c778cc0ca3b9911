// Package membench is the white-box memory benchmark engine (second
// methodology stage) for the Figure 6 kernel. It executes trials from a
// doe.Design against the simulated substrate — cache hierarchy (memsim),
// DVFS clock (cpusim), and OS scheduler (ossim) — in exactly the designed
// order, logging one raw record per measurement.
//
// The factor set is the cause-and-effect diagram of Figure 13: experiment
// plan (size, stride, cycles/nloops, repetitions, sequence order), memory
// allocation (element type, allocation technique), operating system
// (scheduling priority, CPU frequency governor, core pinning, dedication),
// compilation (loop unrolling), and architecture (the machine).
package membench

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"

	"opaquebench/internal/core"
	"opaquebench/internal/cpusim"
	"opaquebench/internal/doe"
	"opaquebench/internal/memsim"
	"opaquebench/internal/meta"
	"opaquebench/internal/ossim"
	"opaquebench/internal/xrand"
)

// Factor names understood by the engine.
const (
	FactorSize   = "size"   // buffer size in bytes
	FactorStride = "stride" // access stride in elements
	FactorElem   = "elem"   // element size in bytes
	FactorNLoops = "nloops" // kernel repetition count
	FactorUnroll = "unroll" // 0 or 1
	FactorKernel = "kernel" // sum | copy | triad (STREAM family)
)

// Allocation strategies.
const (
	AllocContiguous = "contiguous"
	AllocPool       = "pool"
	AllocArena      = "arena"
)

// Config describes a memory campaign's fixed environment (everything not
// varied by the design).
type Config struct {
	// Machine is the simulated processor. Required.
	Machine *memsim.Machine
	// Seed drives every stochastic component.
	Seed uint64
	// Governor is the DVFS governor; nil means cpusim.Performance.
	Governor cpusim.Governor
	// SamplingPeriodSec is the governor sampling period (default 10 ms).
	SamplingPeriodSec float64
	// Sched configures the OS scheduler model; the zero value is a pinned
	// run under the default policy on a dedicated machine.
	Sched ossim.Config
	// Allocation selects the buffer allocation strategy (default
	// AllocContiguous).
	Allocation string
	// PoolPages is the physical page pool size for AllocPool (default
	// 4096 pages = 16 MB).
	PoolPages int
	// ArenaBytes is the arena size for AllocArena (default 2 MB).
	ArenaBytes int
	// GapSec is the idle time between measurements (logging, allocation
	// — default 5 ms); it lets the ondemand governor ramp down and the
	// virtual timeline advance.
	GapSec float64
	// Indexed selects trial-indexed execution: every stochastic and
	// temporal quantity of a trial derives from (Seed, Trial.Seq) instead
	// of accumulated engine state, so a trial's record is independent of
	// which trials ran before it. This is what lets the parallel runner
	// shard a design across workers and still reproduce a serial campaign
	// record for record. It requires the history-free subset of the
	// substrate: a load-oblivious governor (performance, powersave,
	// userspace), the contiguous allocation strategy, and a pinned
	// scheduler configuration; load-reactive governors, pool/arena
	// allocation and migration noise are inherently sequential and stay
	// exclusive to the default stateful mode.
	Indexed bool
	// SlotSec is the virtual-time slot per trial in indexed mode: trial
	// Seq starts at Seq*SlotSec. Default GapSec. Ignored when !Indexed.
	SlotSec float64
}

func (c Config) withDefaults() (Config, error) {
	if c.Machine == nil {
		return c, fmt.Errorf("membench: config needs a machine")
	}
	if err := c.Machine.Validate(); err != nil {
		return c, err
	}
	if c.Governor == nil {
		c.Governor = cpusim.Performance{}
	}
	if c.SamplingPeriodSec <= 0 {
		c.SamplingPeriodSec = 0.01
	}
	if c.Allocation == "" {
		c.Allocation = AllocContiguous
	}
	if c.PoolPages <= 0 {
		c.PoolPages = 4096
	}
	if c.ArenaBytes <= 0 {
		c.ArenaBytes = 2 << 20
	}
	if c.GapSec <= 0 {
		c.GapSec = 0.005
	}
	if c.SlotSec <= 0 {
		c.SlotSec = c.GapSec
	}
	if c.Indexed {
		if _, ok := cpusim.SteadyHz(c.Governor, c.Machine.FreqTable); !ok {
			return c, fmt.Errorf("membench: indexed mode needs a load-oblivious governor, not %q", c.Governor.Name())
		}
		if c.Allocation != AllocContiguous {
			return c, fmt.Errorf("membench: indexed mode needs contiguous allocation, not %q", c.Allocation)
		}
		if c.Sched.Unpinned {
			return c, fmt.Errorf("membench: indexed mode needs a pinned scheduler configuration")
		}
	}
	c.Sched.Seed = xrand.Derive(c.Seed, "membench/sched")
	return c, nil
}

// Engine implements core.Engine for memory campaigns.
type Engine struct {
	cfg Config
	// hierarchy is built on first use (cacheHierarchy), so the probe engine
	// planning builds, and an engine whose trials the kernel memo serves,
	// never pay for one.
	hierarchy *memsim.Hierarchy
	clock     *cpusim.Clock
	sched     *ossim.Scheduler
	alloc     memsim.Allocator
	noise     *rand.Rand
	phase     *rand.Rand
	// steadyHz is the governor's constant frequency in indexed mode.
	steadyHz float64

	// Indexed-mode trial scratch, reused across trials so the per-trial
	// hot path allocates nothing: the fresh-address-space allocator is
	// Reset() instead of reconstructed, the buffer structs and the noise
	// generator are engine-held, the constant frequency annotation is
	// pre-rendered, and annotation maps are shared between the (many)
	// trials whose annotations coincide.
	idxAlloc   *memsim.ContiguousAllocator
	idxBufs    [3]memsim.Buffer
	idxPtrs    [3]*memsim.Buffer
	idxPCG     *rand.PCG
	idxNoise   *rand.Rand
	freqStr    string
	extraCache map[extraKey]map[string]string
	// memo serves repeated kernels of indexed trials; engines built by one
	// Factory share it.
	memo *kernelMemo
}

// extraKey identifies one distinct annotation set of an indexed trial.
type extraKey struct {
	bound    string
	slowdown float64
}

// NewEngine builds an engine; the substrate state (caches, clock, page
// pool) persists across all trials of the campaign, as it would in a real
// process. The cache hierarchy, megabytes of tag arrays for the larger
// machines, is built on the first trial that simulates a kernel;
// withDefaults has already validated every level it will be built from.
func NewEngine(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	phase := xrand.NewDerived(cfg.Seed, "membench/phase")
	clock, err := cpusim.NewClock(cfg.Machine.FreqTable, cfg.Governor,
		cfg.SamplingPeriodSec, phase.Float64()*cfg.SamplingPeriodSec)
	if err != nil {
		return nil, err
	}
	var alloc memsim.Allocator
	switch cfg.Allocation {
	case AllocContiguous:
		alloc = memsim.NewContiguousAllocator(cfg.Machine.PageBytes)
	case AllocPool:
		alloc, err = memsim.NewPoolAllocator(cfg.Machine.PageBytes, cfg.PoolPages,
			xrand.Derive(cfg.Seed, "membench/pool"))
	case AllocArena:
		alloc, err = memsim.NewArenaAllocator(cfg.Machine.PageBytes, cfg.ArenaBytes, 8,
			xrand.Derive(cfg.Seed, "membench/arena"))
	default:
		return nil, fmt.Errorf("membench: unknown allocation strategy %q", cfg.Allocation)
	}
	if err != nil {
		return nil, err
	}
	steadyHz, _ := cpusim.SteadyHz(cfg.Governor, cfg.Machine.FreqTable)
	e := &Engine{
		cfg:      cfg,
		clock:    clock,
		sched:    ossim.New(cfg.Sched),
		alloc:    alloc,
		noise:    xrand.NewDerived(cfg.Seed, "membench/noise"),
		phase:    phase,
		steadyHz: steadyHz,
	}
	if cfg.Indexed {
		e.idxAlloc = memsim.NewContiguousAllocator(cfg.Machine.PageBytes)
		for i := range e.idxPtrs {
			e.idxPtrs[i] = &e.idxBufs[i]
		}
		e.idxPCG = rand.NewPCG(0, 0)
		e.idxNoise = rand.New(e.idxPCG)
		e.freqStr = fmt.Sprintf("%.0f", steadyHz)
		e.extraCache = map[extraKey]map[string]string{}
		e.memo = newKernelMemo(cfg.Machine)
	}
	return e, nil
}

// sharedExtra returns the annotation map for one indexed trial, cached per
// distinct (bound_by, slowdown) pair: most trials of a campaign share one
// immutable map instead of each allocating a three-entry copy. Sharing is
// safe because consumers treat a record's Extra as read-only — the runner's
// round sink copies before adding its own keys.
func (e *Engine) sharedExtra(bound string, slowdown float64) map[string]string {
	k := extraKey{bound, slowdown}
	if m, ok := e.extraCache[k]; ok {
		return m
	}
	m := map[string]string{
		"bound_by":      bound,
		"freq_start_hz": e.freqStr,
		"slowdown":      fmt.Sprintf("%.3g", slowdown),
	}
	e.extraCache[k] = m
	return m
}

// Factory returns a core.EngineFactory producing independent indexed-mode
// engines for the given configuration, one per runner worker. The returned
// factory forces Indexed on; the first NewEngine call reports any
// configuration that cannot run trial-indexed (load-reactive governor,
// pool/arena allocation, unpinned scheduler). The engines of one Factory
// share one kernel memo, so each distinct sweep of a campaign, and each
// kernel without one, is simulated once, whichever worker runs it.
func Factory(cfg Config) core.EngineFactory {
	memo := newKernelMemo(cfg.Machine)
	return core.EngineFactoryFunc(func() (core.Engine, error) {
		cfg := cfg
		cfg.Indexed = true
		e, err := NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		e.memo = memo
		return e, nil
	})
}

// ParseParams extracts kernel parameters from a design point. Missing
// factors default to stride 1, 4-byte elements, 100 loops, no unrolling;
// size is required.
func ParseParams(p doe.Point) (memsim.KernelParams, error) {
	kp := memsim.KernelParams{Stride: 1, ElemBytes: 4, NLoops: 100}
	size, err := p.Int(FactorSize)
	if err != nil {
		return kp, err
	}
	kp.SizeBytes = size
	if _, ok := p[FactorStride]; ok {
		if kp.Stride, err = p.Int(FactorStride); err != nil {
			return kp, err
		}
	}
	if _, ok := p[FactorElem]; ok {
		if kp.ElemBytes, err = p.Int(FactorElem); err != nil {
			return kp, err
		}
	}
	if _, ok := p[FactorNLoops]; ok {
		if kp.NLoops, err = p.Int(FactorNLoops); err != nil {
			return kp, err
		}
	}
	if v, ok := p[FactorUnroll]; ok {
		kp.Unroll = v == "1" || strings.EqualFold(string(v), "true")
	}
	return kp, nil
}

// ParseKind extracts the STREAM kernel kind from a design point; missing
// means the Figure 6 read-only sum kernel.
func ParseKind(p doe.Point) (memsim.StreamKind, error) {
	v, ok := p[FactorKernel]
	if !ok || v == "" {
		return memsim.StreamSum, nil
	}
	k := memsim.StreamKind(v)
	if !k.Valid() {
		return "", fmt.Errorf("membench: unknown kernel %q", string(v))
	}
	return k, nil
}

// Execute implements core.Engine: one measurement of the Figure 6 kernel
// (or a STREAM-family variant when the design carries a kernel factor).
func (e *Engine) Execute(t doe.Trial) (core.RawRecord, error) {
	kp, err := ParseParams(t.Point)
	if err != nil {
		return core.RawRecord{}, err
	}
	kind, err := ParseKind(t.Point)
	if err != nil {
		return core.RawRecord{}, err
	}
	var res memsim.KernelResult
	if e.cfg.Indexed {
		res, err = e.indexedKernel(kp, kind)
	} else {
		res, err = e.statefulKernel(kp, kind)
	}
	if err != nil {
		return core.RawRecord{}, err
	}

	var at, freqStart, seconds float64
	if e.cfg.Indexed {
		at = float64(t.Seq) * e.cfg.SlotSec
		freqStart = e.steadyHz
		seconds = res.Cycles / freqStart
	} else {
		at = e.clock.Now()
		freqStart = e.clock.FreqHz()
		seconds = e.clock.ExecuteCycles(res.Cycles)
	}

	slowdown := e.sched.SlowdownAt(at)
	if !e.cfg.Indexed {
		// The virtual clock only advances, so scheduler windows behind it
		// are dead: release them to keep long campaigns' memory bounded.
		e.sched.Release(at)
	}
	seconds *= slowdown
	noise := e.noise
	if e.cfg.Indexed {
		// Reseed the engine-held generator to the exact state a fresh
		// NewDerived(seed, "membench/noise@"+seq) would start in.
		xrand.Reseed(e.idxPCG, xrand.DeriveIndexed(e.cfg.Seed, "membench/noise@", t.Seq))
		noise = e.idxNoise
	}
	seconds = e.cfg.Machine.ApplyNoise(noise, seconds)

	if !e.cfg.Indexed {
		// Idle gap before the next measurement (allocation, logging).
		e.clock.Idle(e.cfg.GapSec)
	}

	rec := core.RawRecord{
		Point:   t.Point,
		Value:   res.BandwidthMBps(kp.ElemBytes, seconds),
		Seconds: seconds,
		At:      at,
	}
	if e.cfg.Indexed {
		rec.Extra = e.sharedExtra(res.BoundBy, slowdown)
	} else {
		rec.Annotate("bound_by", res.BoundBy)
		rec.Annotate("freq_start_hz", fmt.Sprintf("%.0f", freqStart))
		rec.Annotate("slowdown", fmt.Sprintf("%.3g", slowdown))
	}
	return rec, nil
}

// indexedKernel simulates an indexed trial's kernel on a fresh address
// space and a cold hierarchy, so the measurement replays identically
// wherever the trial lands in the (possibly sharded) execution. That makes
// the result a pure function of the kernel, and the engine's memo serves
// every later trial of the same kernel, or of the same sweep, without
// simulating it again.
func (e *Engine) indexedKernel(kp memsim.KernelParams, kind memsim.StreamKind) (memsim.KernelResult, error) {
	key := kernelKey{kp, kind}
	if res, ok := e.memo.result(key); ok {
		return res, nil
	}
	// The allocator rewind and engine-held buffer structs reproduce exactly
	// the addresses a fresh allocator would hand out, without allocating.
	e.idxAlloc.Reset()
	bufs := e.idxPtrs[:kind.Buffers()]
	for i := range bufs {
		if err := e.idxAlloc.AllocInto(bufs[i], kp.SizeBytes); err != nil {
			return memsim.KernelResult{}, err
		}
		if i+1 < len(bufs) {
			// Stagger multi-array kernels by one page, as real STREAM
			// implementations pad, to avoid power-of-two set collisions.
			e.idxAlloc.SkipPages(i + 1)
		}
	}
	sweep, shared := memsim.SumSweep(e.cfg.Machine, bufs, kp, kind)
	return e.memo.load(key, sweep, shared, func() (*memsim.PassProfile, error) {
		h, err := e.cacheHierarchy()
		if err != nil {
			return nil, err
		}
		h.Flush()
		return memsim.SimulatePasses(e.cfg.Machine, h, bufs, kp, kind)
	})
}

// cacheHierarchy returns the engine's cache hierarchy, building it on first
// use. Nothing touches the hierarchy before the first simulated kernel, so
// building it then changes no simulated access.
func (e *Engine) cacheHierarchy() (*memsim.Hierarchy, error) {
	if e.hierarchy == nil {
		h, err := e.cfg.Machine.NewHierarchy()
		if err != nil {
			return nil, err
		}
		e.hierarchy = h
	}
	return e.hierarchy, nil
}

// statefulKernel simulates a kernel on the engine's persistent substrate:
// buffers come from the configured allocator and the hierarchy keeps
// whatever earlier trials left in it, as in a real benchmark process.
func (e *Engine) statefulKernel(kp memsim.KernelParams, kind memsim.StreamKind) (memsim.KernelResult, error) {
	alloc := e.alloc
	bufs := make([]*memsim.Buffer, kind.Buffers())
	for i := range bufs {
		var err error
		if bufs[i], err = alloc.Alloc(kp.SizeBytes); err != nil {
			return memsim.KernelResult{}, err
		}
		if e.cfg.Allocation == AllocContiguous && i+1 < len(bufs) {
			// Stagger multi-array kernels by one page, as real STREAM
			// implementations pad, to avoid power-of-two set collisions.
			pad, err := alloc.Alloc(e.cfg.Machine.PageBytes * (i + 1))
			if err != nil {
				return memsim.KernelResult{}, err
			}
			defer alloc.Free(pad)
		}
	}
	defer func() {
		for _, b := range bufs {
			alloc.Free(b)
		}
	}()
	h, err := e.cacheHierarchy()
	if err != nil {
		return memsim.KernelResult{}, err
	}
	return memsim.RunStream(e.cfg.Machine, h, bufs, kp, kind)
}

// kernelMemo holds the kernel results of trial-indexed engines. An indexed
// kernel result depends only on the machine, which one Config fixes, and
// on the kernel key, so the replicates of a design point, and every engine
// one Factory builds, can share a single simulation. Sum kernels with one
// sweep key (memsim.SumSweep) share one pass profile as well, so a new
// stride of a swept buffer is only assembled. Noise, slowdown, timing and
// annotations are still derived per trial, after the lookup. Stateful
// engines never consult a memo: their hierarchy carries history from trial
// to trial.
//
// The memo is single-flight: while one engine simulates a sweep (or an
// unshareable kernel), the others that need it wait for its profile
// instead of simulating it too. Only successful simulations are stored; a
// failure wakes the waiters, and each retries on its own.
type kernelMemo struct {
	machine  *memsim.Machine
	mu       sync.Mutex
	results  map[kernelKey]memsim.KernelResult
	sweeps   map[memsim.SweepKey]*memsim.PassProfile
	inflight map[any]chan struct{} // closed when the simulation ends
	// simulations counts the simulations started, failed ones included.
	simulations int
}

type kernelKey struct {
	params memsim.KernelParams
	kind   memsim.StreamKind
}

func newKernelMemo(m *memsim.Machine) *kernelMemo {
	return &kernelMemo{
		machine:  m,
		results:  map[kernelKey]memsim.KernelResult{},
		sweeps:   map[memsim.SweepKey]*memsim.PassProfile{},
		inflight: map[any]chan struct{}{},
	}
}

func (m *kernelMemo) result(k kernelKey) (memsim.KernelResult, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	res, ok := m.results[k]
	return res, ok
}

// load returns the result of kernel k, calling simulate only when neither
// k's result nor, when shared, its sweep's profile is stored and no other
// caller is simulating the same thing.
func (m *kernelMemo) load(k kernelKey, sweep memsim.SweepKey, shared bool,
	simulate func() (*memsim.PassProfile, error)) (memsim.KernelResult, error) {
	var flight any = k
	if shared {
		flight = sweep
	}
	m.mu.Lock()
	for {
		if res, ok := m.results[k]; ok {
			m.mu.Unlock()
			return res, nil
		}
		if prof, ok := m.sweeps[sweep]; shared && ok {
			res := prof.Assemble(m.machine, k.params, k.kind)
			m.results[k] = res
			m.mu.Unlock()
			return res, nil
		}
		done, busy := m.inflight[flight]
		if !busy {
			break
		}
		m.mu.Unlock()
		<-done
		m.mu.Lock()
	}
	done := make(chan struct{})
	m.inflight[flight] = done
	m.simulations++
	m.mu.Unlock()

	prof, err := simulate()

	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.inflight, flight)
	close(done)
	if err != nil {
		return memsim.KernelResult{}, err
	}
	if shared {
		m.sweeps[sweep] = prof
	}
	res := prof.Assemble(m.machine, k.params, k.kind)
	m.results[k] = res
	return res, nil
}

// Environment implements core.Engine.
func (e *Engine) Environment() *meta.Environment {
	env := meta.New()
	env.Set("machine", e.cfg.Machine.Name)
	env.Setf("machine/l1_bytes", "%d", e.cfg.Machine.L1().SizeBytes)
	env.Setf("machine/page_bytes", "%d", e.cfg.Machine.PageBytes)
	env.Set("governor", e.cfg.Governor.Name())
	env.Setf("governor/period_s", "%g", e.cfg.SamplingPeriodSec)
	env.Set("alloc", e.alloc.Name())
	env.Set("sched", e.sched.String())
	env.Setf("seed", "%d", e.cfg.Seed)
	if e.cfg.Indexed {
		env.Set("mode", "indexed")
		env.Setf("slot_s", "%g", e.cfg.SlotSec)
	}
	return env
}

// Factors builds the standard factor list for a memory campaign from
// explicit level sets; nil slices get a single default level.
func Factors(sizes, strides, elems, nloops []int, unrolls []bool) []doe.Factor {
	if len(strides) == 0 {
		strides = []int{1}
	}
	if len(elems) == 0 {
		elems = []int{4}
	}
	if len(nloops) == 0 {
		nloops = []int{100}
	}
	fs := []doe.Factor{
		doe.IntFactor(FactorSize, sizes...),
		doe.IntFactor(FactorStride, strides...),
		doe.IntFactor(FactorElem, elems...),
		doe.IntFactor(FactorNLoops, nloops...),
	}
	if len(unrolls) > 0 {
		levels := make([]int, len(unrolls))
		for i, u := range unrolls {
			if u {
				levels[i] = 1
			}
		}
		fs = append(fs, doe.IntFactor(FactorUnroll, levels...))
	}
	return fs
}

// FactorDiagram renders the Figure 13 cause-and-effect diagram of the
// factors the engine controls.
func FactorDiagram() string {
	var b strings.Builder
	b.WriteString("Influential factors (Figure 13):\n")
	groups := []struct {
		name    string
		factors []string
	}{
		{"Experiment plan", []string{"size", "stride", "cycles (nloops)", "repetitions", "sequence order"}},
		{"Memory allocation", []string{"element type", "allocation technique"}},
		{"Operating system", []string{"scheduling priority", "CPU frequency governor", "core pinning", "dedication"}},
		{"Compilation", []string{"optimization", "loop unrolling"}},
		{"Architecture", []string{"Intel", "ARM", "word size"}},
	}
	for _, g := range groups {
		fmt.Fprintf(&b, "  %-18s -> %s\n", g.name, strings.Join(g.factors, ", "))
	}
	b.WriteString("  all of the above   -> Time / Bandwidth\n")
	return b.String()
}
