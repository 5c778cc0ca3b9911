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
// first) on machine m against hierarchy h. The hierarchy's pre-existing
// contents represent whatever the previous measurement left behind, exactly
// like a real benchmark process. Stores add write-allocate fills and
// writeback traffic to the interfaces they cross, and a machine with a TLB
// model charges its page walks.
//
// The roofline applies per traversal: the cold traversal may be bound by
// the memory interface while steady-state traversals are issue-bound.
// Traversals beyond the third are extrapolated from the steady-state one:
// the access pattern repeats identically, so with LRU replacement the
// per-traversal miss pattern is periodic after warm-up.
func RunStream(m *Machine, h *Hierarchy, bufs []*Buffer, p KernelParams, kind StreamKind) (KernelResult, error) {
	if !kind.Valid() {
		return KernelResult{}, fmt.Errorf("memsim: unknown stream kernel %q", kind)
	}
	if len(bufs) < kind.Buffers() {
		return KernelResult{}, fmt.Errorf("memsim: %s kernel needs %d buffers, got %d", kind, kind.Buffers(), len(bufs))
	}
	for bi := 0; bi < kind.Buffers(); bi++ {
		if err := p.Validate(bufs[bi]); err != nil {
			return KernelResult{}, err
		}
	}
	iters := p.SizeBytes / p.ElemBytes / p.Stride
	strideBytes := p.Stride * p.ElemBytes
	reads, writes := kind.accessesPerIteration()
	perIter := reads + writes

	simLoops := p.NLoops
	extrapolate := false
	if p.NLoops > 3 {
		simLoops = 3
		extrapolate = true
	}

	nLevels := len(h.Levels())
	cpa := m.Issue.CyclesPerAccess(p.ElemBytes, p.Unroll)
	issuePerLoop := float64(iters*perIter) * cpa
	tlb := NewTLB(m.TLBEntries)
	pageBytes := uint64(m.PageBytes)

	// One flat backing array holds every per-traversal counter; the 2D views
	// just slice it, so a traversal costs no allocations beyond this block.
	repCycles := make([]float64, simLoops)
	repBound := make([]string, simLoops)
	perLoopTraffic := make([][]uint64, simLoops) // fills + writebacks per level
	perLoopFills := make([][]uint64, simLoops)
	perLoopTLBMisses := make([]uint64, simLoops)
	flat := make([]uint64, simLoops*(2*nLevels+1))
	for rep := 0; rep < simLoops; rep++ {
		perLoopFills[rep], flat = flat[:nLevels+1:nLevels+1], flat[nLevels+1:]
		perLoopTraffic[rep], flat = flat[:nLevels:nLevels], flat[nLevels:]
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
		perLoopTLBMisses[rep] = tlb.Misses() - tlbMissesBefore
		fills := perLoopFills[rep]
		copy(fills, h.fills)
		fills[nLevels] = h.memFills
		traffic := perLoopTraffic[rep]
		for i := 0; i < nLevels; i++ {
			traffic[i] = h.fills[i] + h.writeTraffic[i]
		}

		repCycles[rep] = issuePerLoop + float64(perLoopTLBMisses[rep])*m.TLBMissCycles
		repBound[rep] = "issue"
		for i := 0; i < nLevels; i++ {
			cfg := h.Levels()[i].Config()
			tc := float64(traffic[i]) * float64(cfg.LineBytes) / cfg.FillBytesPerCycle
			if tc > repCycles[rep] {
				repCycles[rep] = tc
				repBound[rep] = cfg.Name
				if i == nLevels-1 {
					repBound[rep] = "mem"
				}
			}
		}
	}

	totalFills := make([]uint64, nLevels+1)
	totalTraffic := make([]uint64, nLevels)
	var totalCycles float64
	var totalTLBMisses uint64
	for rep := 0; rep < simLoops; rep++ {
		totalTLBMisses += perLoopTLBMisses[rep]
		for i := range perLoopFills[rep] {
			totalFills[i] += perLoopFills[rep][i]
		}
		for i := range perLoopTraffic[rep] {
			totalTraffic[i] += perLoopTraffic[rep][i]
		}
		totalCycles += repCycles[rep]
	}
	if extrapolate {
		extra := uint64(p.NLoops - simLoops)
		for i := range perLoopFills[simLoops-1] {
			totalFills[i] += perLoopFills[simLoops-1][i] * extra
		}
		for i := range perLoopTraffic[simLoops-1] {
			totalTraffic[i] += perLoopTraffic[simLoops-1][i] * extra
		}
		totalCycles += repCycles[simLoops-1] * float64(extra)
		totalTLBMisses += perLoopTLBMisses[simLoops-1] * extra
	}

	res := KernelResult{
		Accesses:    uint64(iters*perIter) * uint64(p.NLoops),
		Fills:       totalFills,
		Cycles:      totalCycles,
		BoundBy:     repBound[simLoops-1],
		IssueCycles: float64(iters*perIter) * float64(p.NLoops) * cpa,
		TLBMisses:   totalTLBMisses,
	}
	res.TransferCycles = make([]float64, nLevels)
	for i := 0; i < nLevels; i++ {
		cfg := h.Levels()[i].Config()
		res.TransferCycles[i] = float64(totalTraffic[i]) * float64(cfg.LineBytes) / cfg.FillBytesPerCycle
	}
	return res, nil
}
