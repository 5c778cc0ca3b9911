package memsim

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// refCache is a deliberately naive set-associative cache, the oracle the
// optimized Cache is checked against: every set keeps its ways in fixed
// slots plus an explicit recency list, most recent first. There are no
// epochs (Flush clears everything eagerly), no MRU shortcut and no
// shift-and-mask address split.
type refCache struct {
	lineBytes, sets int
	random          bool
	rng             uint64
	slots           [][]refWay // [set][way]
	order           [][]int    // [set] touched ways, most recent first

	hits, misses, writebacks uint64
}

type refWay struct {
	valid, dirty bool
	tag          uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	r := &refCache{
		lineBytes: cfg.LineBytes,
		sets:      cfg.Sets(),
		random:    cfg.Replacement == RandomReplacement,
		slots:     make([][]refWay, cfg.Sets()),
		order:     make([][]int, cfg.Sets()),
	}
	for s := range r.slots {
		r.slots[s] = make([]refWay, cfg.Ways)
	}
	r.flush()
	return r
}

func (r *refCache) flush() {
	for s := range r.slots {
		for w := range r.slots[s] {
			r.slots[s][w] = refWay{}
		}
		r.order[s] = r.order[s][:0]
	}
	r.rng = replRNGSeed
	r.hits, r.misses, r.writebacks = 0, 0, 0
}

func (r *refCache) split(phys uint64) (set int, tag uint64) {
	line := phys / uint64(r.lineBytes)
	return int(line % uint64(r.sets)), line / uint64(r.sets)
}

// touch moves way w to the front of its set's recency list.
func (r *refCache) touch(set, w int) {
	o := r.order[set]
	for i, x := range o {
		if x == w {
			o = append(o[:i], o[i+1:]...)
			break
		}
	}
	r.order[set] = append([]int{w}, o...)
}

func (r *refCache) access(phys uint64, write bool) (hit, evictedDirty bool, evictedLine uint64) {
	set, tag := r.split(phys)
	ways := r.slots[set]
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			if write {
				ways[w].dirty = true
			}
			r.touch(set, w)
			r.hits++
			return true, false, 0
		}
	}
	victim := -1
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		if r.random {
			r.rng ^= r.rng << 13
			r.rng ^= r.rng >> 7
			r.rng ^= r.rng << 17
			victim = int(r.rng % uint64(len(ways)))
		} else {
			victim = r.order[set][len(r.order[set])-1]
		}
	}
	if ways[victim].valid && ways[victim].dirty {
		evictedDirty = true
		evictedLine = (ways[victim].tag*uint64(r.sets) + uint64(set)) * uint64(r.lineBytes)
		r.writebacks++
	}
	ways[victim] = refWay{valid: true, dirty: write, tag: tag}
	r.touch(set, victim)
	r.misses++
	return false, evictedDirty, evictedLine
}

func (r *refCache) contains(phys uint64) bool {
	set, tag := r.split(phys)
	for _, w := range r.slots[set] {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// refHierarchy stacks refCaches with the write-allocate, writeback-cascade
// semantics of Hierarchy.AccessRW.
type refHierarchy struct {
	levels              []*refCache
	fills, writeTraffic []uint64
	memFills, accesses  uint64
}

func newRefHierarchy(cfgs []CacheConfig) *refHierarchy {
	r := &refHierarchy{fills: make([]uint64, len(cfgs)), writeTraffic: make([]uint64, len(cfgs))}
	for _, cfg := range cfgs {
		r.levels = append(r.levels, newRefCache(cfg))
	}
	return r
}

func (r *refHierarchy) access(phys uint64, write bool) int {
	r.accesses++
	for i, c := range r.levels {
		hit, evDirty, evLine := c.access(phys, write && i == 0)
		if evDirty {
			r.writeTraffic[i]++
			r.writeback(i+1, evLine)
		}
		if hit {
			return i
		}
		r.fills[i]++
	}
	r.memFills++
	return len(r.levels)
}

func (r *refHierarchy) writeback(j int, line uint64) {
	if j >= len(r.levels) {
		return
	}
	if _, evDirty, evLine := r.levels[j].access(line, true); evDirty {
		r.writeTraffic[j]++
		r.writeback(j+1, evLine)
	}
}

func (r *refHierarchy) flush() {
	for _, c := range r.levels {
		c.flush()
	}
	for i := range r.fills {
		r.fills[i], r.writeTraffic[i] = 0, 0
	}
	r.memFills, r.accesses = 0, 0
}

// traceOp is one step of an oracle trace: a load or store, or a Flush.
type traceOp struct {
	flush bool
	phys  uint64
	write bool
}

// oracleTrace mixes random accesses over span bytes, strided runs with
// assorted strides (line-dividing, non-dividing and page-sized) and
// occasional Flushes; about a third of the accesses are stores.
func oracleTrace(r *rand.Rand, span uint64, n int) []traceOp {
	strides := []uint64{1, 4, 8, 12, 32, 64, 100, 4096}
	var ops []traceOp
	for len(ops) < n {
		switch k := r.IntN(20); {
		case k == 0:
			ops = append(ops, traceOp{flush: true})
		case k < 10:
			for i := 0; i < 1+r.IntN(64); i++ {
				ops = append(ops, traceOp{phys: r.Uint64N(span), write: r.IntN(3) == 0})
			}
		default:
			phys, stride := r.Uint64N(span), strides[r.IntN(len(strides))]
			write := r.IntN(3) == 0
			for i := 0; i < 1+r.IntN(512); i++ {
				ops = append(ops, traceOp{phys: phys, write: write})
				phys += stride
			}
		}
	}
	return ops
}

// oracleGeometries are the hierarchies the oracle runs: a tiny pow2 pair,
// a non-pow2 pair (the division address split, no MRU tracking) and the
// L1/L2 of two Figure 5 machines, under both replacement policies.
func oracleGeometries() map[string][]CacheConfig {
	base := map[string][]CacheConfig{
		"tiny": {
			{Name: "L1", SizeBytes: 128, Ways: 2, LineBytes: 16, FillBytesPerCycle: 1},
			{Name: "L2", SizeBytes: 1024, Ways: 4, LineBytes: 16, FillBytesPerCycle: 1},
		},
		"nonpow2": {
			{Name: "L1", SizeBytes: 3 * 2 * 24, Ways: 2, LineBytes: 24, FillBytesPerCycle: 1},
			{Name: "L2", SizeBytes: 5 * 4 * 24, Ways: 4, LineBytes: 24, FillBytesPerCycle: 1},
		},
		"opteron": Opteron().Levels,
		"arm":     ARMSnowball().Levels,
	}
	out := map[string][]CacheConfig{}
	for name, cfgs := range base {
		for _, repl := range []Replacement{LRU, RandomReplacement} {
			cs := append([]CacheConfig(nil), cfgs...)
			for i := range cs {
				cs[i].Replacement = repl
			}
			out[fmt.Sprintf("%s/repl=%d", name, repl)] = cs
		}
	}
	return out
}

// oracleSpan covers about three times the last level, so traces mix hits,
// conflict and capacity misses at every level.
func oracleSpan(cfgs []CacheConfig) uint64 {
	return 3 * uint64(cfgs[len(cfgs)-1].SizeBytes)
}

func TestCacheMatchesReferenceOracle(t *testing.T) {
	for name, cfgs := range oracleGeometries() {
		t.Run(name, func(t *testing.T) {
			cfg := cfgs[0]
			c, err := NewCache(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefCache(cfg)
			r := rand.New(rand.NewPCG(1, uint64(len(name))))
			span := 3 * uint64(cfg.SizeBytes)
			for step, op := range oracleTrace(r, span, 40000) {
				if op.flush {
					c.Flush()
					ref.flush()
					continue
				}
				hit, evDirty, evLine := c.AccessRW(op.phys, op.write)
				rHit, rEvDirty, rEvLine := ref.access(op.phys, op.write)
				if hit != rHit || evDirty != rEvDirty || evLine != rEvLine {
					t.Fatalf("step %d (%+v): cache (hit %v, evicted dirty %v line %#x), reference (%v, %v, %#x)",
						step, op, hit, evDirty, evLine, rHit, rEvDirty, rEvLine)
				}
				if c.Hits() != ref.hits || c.Misses() != ref.misses || c.Writebacks() != ref.writebacks {
					t.Fatalf("step %d: counters %d/%d/%d, reference %d/%d/%d", step,
						c.Hits(), c.Misses(), c.Writebacks(), ref.hits, ref.misses, ref.writebacks)
				}
				probe := r.Uint64N(span)
				if c.Contains(probe) != ref.contains(probe) {
					t.Fatalf("step %d: Contains(%#x) = %v, reference %v", step, probe, c.Contains(probe), ref.contains(probe))
				}
			}
		})
	}
}

func TestHierarchyMatchesReferenceOracle(t *testing.T) {
	for name, cfgs := range oracleGeometries() {
		t.Run(name, func(t *testing.T) {
			h, err := NewHierarchy(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefHierarchy(cfgs)
			r := rand.New(rand.NewPCG(2, uint64(len(name))))
			for step, op := range oracleTrace(r, oracleSpan(cfgs), 40000) {
				if op.flush {
					h.Flush()
					ref.flush()
					continue
				}
				if d, rd := h.AccessRW(op.phys, op.write), ref.access(op.phys, op.write); d != rd {
					t.Fatalf("step %d (%+v): depth %d, reference %d", step, op, d, rd)
				}
				assertMatchesReference(t, fmt.Sprintf("step %d", step), h, ref)
			}
		})
	}
}

// assertMatchesReference compares every observable counter of h with the
// reference hierarchy.
func assertMatchesReference(t *testing.T, where string, h *Hierarchy, ref *refHierarchy) {
	t.Helper()
	wantFills := append(append([]uint64(nil), ref.fills...), ref.memFills)
	if got := h.Fills(); !reflect.DeepEqual(got, wantFills) {
		t.Fatalf("%s: fills %v, reference %v", where, got, wantFills)
	}
	if got := h.WriteTraffic(); !reflect.DeepEqual(got, ref.writeTraffic) {
		t.Fatalf("%s: write traffic %v, reference %v", where, got, ref.writeTraffic)
	}
	if h.Accesses() != ref.accesses {
		t.Fatalf("%s: accesses %d, reference %d", where, h.Accesses(), ref.accesses)
	}
	for i, c := range h.Levels() {
		rc := ref.levels[i]
		if c.Hits() != rc.hits || c.Misses() != rc.misses || c.Writebacks() != rc.writebacks {
			t.Fatalf("%s: level %d counters %d/%d/%d, reference %d/%d/%d", where, i,
				c.Hits(), c.Misses(), c.Writebacks(), rc.hits, rc.misses, rc.writebacks)
		}
	}
}

// TestStreamLoadsMatchesReferenceOracle drives the line-granular load
// stream with unaligned starts, assorted strides and run lengths, and
// checks it against the reference issuing one access per load.
func TestStreamLoadsMatchesReferenceOracle(t *testing.T) {
	for name, cfgs := range oracleGeometries() {
		t.Run(name, func(t *testing.T) {
			h, err := NewHierarchy(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefHierarchy(cfgs)
			r := rand.New(rand.NewPCG(3, uint64(len(name))))
			span := oracleSpan(cfgs)
			strides := []uint64{1, 2, 3, 4, 8, 12, 24, 32, 64, 100}
			for step := 0; step < 3000; step++ {
				switch r.IntN(10) {
				case 0:
					h.Flush()
					ref.flush()
				case 1, 2:
					phys := r.Uint64N(span)
					h.AccessRW(phys, true)
					ref.access(phys, true)
				default:
					phys, stride, n := r.Uint64N(span), strides[r.IntN(len(strides))], 1+r.IntN(300)
					h.streamLoads(phys, stride, n)
					for i := 0; i < n; i++ {
						ref.access(phys+uint64(i)*stride, false)
					}
				}
				assertMatchesReference(t, fmt.Sprintf("step %d", step), h, ref)
			}
		})
	}
}

// pagedCopy returns a buffer with the same physical addresses as the
// linear buffer b but backed by an explicit page list, which sends
// RunStream down its generic per-element Translate path.
func pagedCopy(b *Buffer) *Buffer {
	return &Buffer{size: b.size, pageBytes: b.pageBytes, pages: b.PhysicalPages()}
}

// runBothPaths runs one kernel on the linear buffers (the fast path) and on
// page-list copies of them (the generic path), each on a fresh hierarchy
// first warmed by warm, and requires identical results and identical
// post-run hierarchies, down to every tick and LRU age.
func runBothPaths(t *testing.T, m *Machine, bufs []*Buffer, p KernelParams, kind StreamKind, warm func(*Hierarchy)) {
	t.Helper()
	paged := make([]*Buffer, len(bufs))
	for i, b := range bufs {
		if !b.linear {
			t.Fatal("runBothPaths needs linear buffers")
		}
		paged[i] = pagedCopy(b)
	}
	var hs [2]*Hierarchy
	var res [2]KernelResult
	for i, bs := range [][]*Buffer{bufs, paged} {
		h, err := m.NewHierarchy()
		if err != nil {
			t.Fatal(err)
		}
		if warm != nil {
			warm(h)
		}
		if res[i], err = RunStream(m, h, bs, p, kind); err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Fatalf("%s %+v: fast path %+v, generic path %+v", kind, p, res[0], res[1])
	}
	if !reflect.DeepEqual(hs[0], hs[1]) {
		t.Fatalf("%s %+v: post-run hierarchy state differs between fast and generic paths", kind, p)
	}
}

func TestLinearFastPathMatchesTranslatePath(t *testing.T) {
	m := CoreI7()
	for _, kind := range []StreamKind{StreamSum, StreamCopy, StreamTriad} {
		for _, stride := range []int{1, 3, 16} {
			for _, size := range []int{4 << 10, 40<<10 + 100, 300 << 10} {
				p := KernelParams{SizeBytes: size, Stride: stride, ElemBytes: 8, NLoops: 5}
				runBothPaths(t, m, streamBufs(t, m, kind.Buffers(), size), p, kind, nil)
			}
		}
	}
}

// TestLineGranularSumMatchesPerElement pins the line-granular sum stream
// against per-element streaming on machines with 64- and 32-byte lines,
// for element sizes and strides that divide the line, do not divide it, or
// exceed it, and sizes that end mid-line. The hierarchies start warm with
// dirty lines, so the first load of a line can trigger writebacks.
func TestLineGranularSumMatchesPerElement(t *testing.T) {
	for _, m := range []*Machine{CoreI7(), Opteron(), ARMSnowball()} {
		warm := func(h *Hierarchy) {
			for off := uint64(0); off < 2*uint64(m.L1().SizeBytes); off += 40 {
				h.AccessRW(off, off%80 == 0)
			}
		}
		for _, elem := range []int{4, 8, 32} {
			for _, stride := range []int{1, 2, 3, 16} {
				for _, size := range []int{3*m.L1().LineBytes + 20, m.L1().SizeBytes + 3*m.L1().LineBytes/2 + 4} {
					p := KernelParams{SizeBytes: size, Stride: stride, ElemBytes: elem, NLoops: 4}
					if p.SizeBytes/p.ElemBytes/p.Stride < 1 {
						continue
					}
					runBothPaths(t, m, streamBufs(t, m, 1, size), p, StreamSum, warm)
				}
			}
		}
	}
}
