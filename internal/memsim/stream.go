package memsim

import "fmt"

// StreamKind selects one of the STREAM-family kernels. MultiMAPS — the
// benchmark the paper dissects — "is derived from STREAM" (Section IV);
// providing the write-bearing variants completes the ancestry: stores are
// write-allocate and dirty evictions consume interface bandwidth, so copy
// and triad stress the hierarchy roughly twice and three times as hard as
// the read-only sum kernel per element.
type StreamKind string

const (
	// StreamSum is the Figure 6 read-only kernel: s += a[stride*i].
	StreamSum StreamKind = "sum"
	// StreamCopy is a[stride*i] = b[stride*i].
	StreamCopy StreamKind = "copy"
	// StreamTriad is a[stride*i] = b[stride*i] + q*c[stride*i].
	StreamTriad StreamKind = "triad"
)

// Buffers returns the number of distinct arrays the kernel touches.
func (k StreamKind) Buffers() int {
	switch k {
	case StreamCopy:
		return 2
	case StreamTriad:
		return 3
	default:
		return 1
	}
}

// accessesPerIteration returns (reads, writes) per loop iteration.
func (k StreamKind) accessesPerIteration() (reads, writes int) {
	switch k {
	case StreamCopy:
		return 1, 1
	case StreamTriad:
		return 2, 1
	default:
		return 1, 0
	}
}

// Valid reports whether k is a known kernel.
func (k StreamKind) Valid() bool {
	switch k {
	case StreamSum, StreamCopy, StreamTriad:
		return true
	}
	return false
}

// RunStream simulates a STREAM-family kernel over the buffers (destination
// first) on machine m against hierarchy h, a hierarchy of m. The
// hierarchy's pre-existing contents represent whatever the previous
// measurement left behind, exactly like a real benchmark process. Stores
// add write-allocate fills and writeback traffic to the interfaces they
// cross, and a machine with a TLB model charges its page walks.
//
// It is the composition of SimulatePasses, which drives the hierarchy, and
// PassProfile.Assemble, which applies the roofline.
func RunStream(m *Machine, h *Hierarchy, bufs []*Buffer, p KernelParams, kind StreamKind) (KernelResult, error) {
	prof, err := SimulatePasses(m, h, bufs, p, kind)
	if err != nil {
		return KernelResult{}, err
	}
	return prof.Assemble(m, p, kind), nil
}

// PassProfile is what the simulated passes of one kernel run did to the
// memory system, pass by pass: the lines installed at each level and
// fetched from memory, the lines crossing each level's fill interface, and
// the TLB misses. These counts are everything the roofline reads.
type PassProfile struct {
	fills     [][]uint64 // [pass][level]; the final entry counts memory fetches
	traffic   [][]uint64 // [pass][level]: fills plus writebacks
	tlbMisses []uint64   // [pass]
}

// simulatedPasses is the number of traversals a kernel of nloops
// traversals simulates; the rest are extrapolated from the last one.
func simulatedPasses(nloops int) int {
	return min(nloops, 3)
}

// SimulatePasses runs the first min(NLoops, 3) traversals of a kernel
// against h, as RunStream does, and returns their per-pass profile.
// Traversals beyond the third are left to Assemble: the access pattern
// repeats identically, so with LRU replacement the per-traversal miss
// pattern is periodic after warm-up.
func SimulatePasses(m *Machine, h *Hierarchy, bufs []*Buffer, p KernelParams, kind StreamKind) (*PassProfile, error) {
	if !kind.Valid() {
		return nil, fmt.Errorf("memsim: unknown stream kernel %q", kind)
	}
	if len(bufs) < kind.Buffers() {
		return nil, fmt.Errorf("memsim: %s kernel needs %d buffers, got %d", kind, kind.Buffers(), len(bufs))
	}
	for bi := 0; bi < kind.Buffers(); bi++ {
		if err := p.Validate(bufs[bi]); err != nil {
			return nil, err
		}
	}
	iters := p.SizeBytes / p.ElemBytes / p.Stride
	strideBytes := p.Stride * p.ElemBytes
	simLoops := simulatedPasses(p.NLoops)
	nLevels := len(h.Levels())
	tlb := NewTLB(m.TLBEntries)
	pageBytes := uint64(m.PageBytes)

	// One flat backing array holds every per-pass counter; the 2D views
	// just slice it, so a pass costs no allocations beyond this block.
	prof := &PassProfile{
		fills:     make([][]uint64, simLoops),
		traffic:   make([][]uint64, simLoops),
		tlbMisses: make([]uint64, simLoops),
	}
	flat := make([]uint64, simLoops*(2*nLevels+1))
	for rep := 0; rep < simLoops; rep++ {
		prof.fills[rep], flat = flat[:nLevels+1:nLevels+1], flat[nLevels+1:]
		prof.traffic[rep], flat = flat[:nLevels:nLevels], flat[nLevels:]
	}

	// The hot path — no TLB model and physically linear buffers, which is
	// every trial-indexed campaign — streams raw physical addresses without
	// closures or per-access translation, and the sum kernel advances one
	// L1 line at a time (Hierarchy.streamLoads); the generic path keeps the
	// TLB and scattered-page behaviour. Both leave the identical cache
	// state and counters, so results match bit for bit
	// (TestLinearFastPathMatchesTranslatePath pins it). Copy and triad stay
	// per element: their alternating buffers displace the MRU entry.
	fast := tlb == nil
	for bi := 0; bi < kind.Buffers(); bi++ {
		fast = fast && bufs[bi].linear
	}
	for rep := 0; rep < simLoops; rep++ {
		h.ResetStats()
		tlbMissesBefore := tlb.Misses()
		if fast {
			sb := uint64(strideBytes)
			switch kind {
			case StreamSum:
				h.streamLoads(bufs[0].base, sb, iters)
			case StreamCopy:
				src, dst := bufs[1].base, bufs[0].base
				for i := 0; i < iters; i++ {
					h.AccessRW(src, false)
					h.AccessRW(dst, true)
					src += sb
					dst += sb
				}
			case StreamTriad:
				in1, in2, dst := bufs[1].base, bufs[2].base, bufs[0].base
				for i := 0; i < iters; i++ {
					h.AccessRW(in1, false)
					h.AccessRW(in2, false)
					h.AccessRW(dst, true)
					in1 += sb
					in2 += sb
					dst += sb
				}
			}
		} else {
			off := 0
			access := func(phys uint64, write bool) {
				tlb.Access(phys / pageBytes)
				h.AccessRW(phys, write)
			}
			if tlb == nil {
				access = func(phys uint64, write bool) { h.AccessRW(phys, write) }
			}
			for i := 0; i < iters; i++ {
				switch kind {
				case StreamSum:
					access(bufs[0].Translate(off), false)
				case StreamCopy:
					access(bufs[1].Translate(off), false)
					access(bufs[0].Translate(off), true)
				case StreamTriad:
					access(bufs[1].Translate(off), false)
					access(bufs[2].Translate(off), false)
					access(bufs[0].Translate(off), true)
				}
				off += strideBytes
			}
		}
		prof.tlbMisses[rep] = tlb.Misses() - tlbMissesBefore
		copy(prof.fills[rep], h.fills)
		prof.fills[rep][nLevels] = h.memFills
		for i := 0; i < nLevels; i++ {
			prof.traffic[rep][i] = h.fills[i] + h.writeTraffic[i]
		}
	}
	return prof, nil
}

// Assemble applies the streaming roofline to a profile of kernel p on
// machine m. The roofline applies per traversal: the cold traversal may be
// bound by the memory interface while steady-state traversals are
// issue-bound. Traversals beyond the simulated ones repeat the last.
func (prof *PassProfile) Assemble(m *Machine, p KernelParams, kind StreamKind) KernelResult {
	iters := p.SizeBytes / p.ElemBytes / p.Stride
	reads, writes := kind.accessesPerIteration()
	perIter := reads + writes
	simLoops := len(prof.fills)
	nLevels := len(m.Levels)
	cpa := m.Issue.CyclesPerAccess(p.ElemBytes, p.Unroll)
	issuePerLoop := float64(iters*perIter) * cpa

	totalFills := make([]uint64, nLevels+1)
	totalTraffic := make([]uint64, nLevels)
	var totalCycles float64
	var totalTLBMisses uint64
	var bound string
	for rep := 0; rep < simLoops; rep++ {
		cycles := issuePerLoop + float64(prof.tlbMisses[rep])*m.TLBMissCycles
		bound = "issue"
		for i, cfg := range m.Levels {
			tc := float64(prof.traffic[rep][i]) * float64(cfg.LineBytes) / cfg.FillBytesPerCycle
			if tc > cycles {
				cycles = tc
				bound = cfg.Name
				if i == nLevels-1 {
					bound = "mem"
				}
			}
		}
		totalTLBMisses += prof.tlbMisses[rep]
		for i, f := range prof.fills[rep] {
			totalFills[i] += f
		}
		for i, tr := range prof.traffic[rep] {
			totalTraffic[i] += tr
		}
		totalCycles += cycles
		if rep == simLoops-1 && p.NLoops > simLoops {
			extra := uint64(p.NLoops - simLoops)
			for i, f := range prof.fills[rep] {
				totalFills[i] += f * extra
			}
			for i, tr := range prof.traffic[rep] {
				totalTraffic[i] += tr * extra
			}
			totalCycles += cycles * float64(extra)
			totalTLBMisses += prof.tlbMisses[rep] * extra
		}
	}

	res := KernelResult{
		Accesses:       uint64(iters*perIter) * uint64(p.NLoops),
		Fills:          totalFills,
		Cycles:         totalCycles,
		BoundBy:        bound,
		IssueCycles:    float64(iters*perIter) * float64(p.NLoops) * cpa,
		TLBMisses:      totalTLBMisses,
		TransferCycles: make([]float64, nLevels),
	}
	for i, cfg := range m.Levels {
		res.TransferCycles[i] = float64(totalTraffic[i]) * float64(cfg.LineBytes) / cfg.FillBytesPerCycle
	}
	return res
}

// SweepKey identifies the line sweep of a stride-invariant sum kernel: the
// first cache line it touches, the number of consecutive lines, and the
// number of simulated passes.
type SweepKey struct {
	firstLine, lines uint64
	passes           int
}

// SumSweep returns the sweep key of kernel p over bufs on machine m, or
// false when the kernel's profile depends on more than its sweep. On
// flushed hierarchies of m, every kernel with a given key simulates to the
// same PassProfile, so a profile may be shared across strides and element
// sizes and only Assemble repeated.
//
// Why that is exact: with a stride of at most one line, each pass touches
// every line from the first to the last, once per run of loads, in address
// order. The first load of a run takes the full access; the run's other
// loads are L1 hits on the line just touched, the newest of its set, so
// they never reorder a set, draw a random victim or reach a deeper level.
// Every level sees the same sequence of line accesses whatever the stride,
// and with one line size across levels a line means the same bytes at each
// of them. Fills, traffic and victims are therefore identical; only L1's
// tick, ages and hit counts differ, which the profile does not read.
// Copy and triad write, a TLB model counts per-load page hits, and
// non-linear buffers scatter lines over pages, so none of them has a key.
func SumSweep(m *Machine, bufs []*Buffer, p KernelParams, kind StreamKind) (SweepKey, bool) {
	if kind != StreamSum || len(bufs) == 0 || !bufs[0].linear || m.TLBEntries > 0 {
		return SweepKey{}, false
	}
	if p.Validate(bufs[0]) != nil {
		return SweepKey{}, false
	}
	line := m.Levels[0].LineBytes
	for _, l := range m.Levels[1:] {
		if l.LineBytes != line {
			return SweepKey{}, false
		}
	}
	strideBytes := p.Stride * p.ElemBytes
	if strideBytes > line {
		return SweepKey{}, false
	}
	iters := p.SizeBytes / p.ElemBytes / p.Stride
	base := bufs[0].base
	first := base / uint64(line)
	last := (base + uint64((iters-1)*strideBytes)) / uint64(line)
	return SweepKey{firstLine: first, lines: last - first + 1, passes: simulatedPasses(p.NLoops)}, true
}
