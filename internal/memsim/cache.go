// Package memsim simulates the memory hierarchies of the paper's Figure 5
// machines: set-associative caches with LRU replacement indexed by physical
// address, a physical-page allocator, a load-issue model capturing
// vectorization and loop unrolling, and an executor for the MultiMAPS-style
// access kernel of Figure 6.
//
// Timing follows a streaming roofline: the cycles for a kernel run are the
// maximum of the load-issue time and the line-transfer time of each cache
// interface. This captures the paper's observation that the L1-size
// performance drop is invisible while the demand rate stays below the
// downstream bandwidth (Section IV.1) while still letting conflict misses —
// e.g. from unlucky physical page placement on ARM (Section IV.4) — emerge
// from genuine set-index collisions.
package memsim

import (
	"fmt"
	"math/bits"
)

// Replacement selects the victim-choice policy of a cache level.
type Replacement int

const (
	// LRU evicts the least-recently-used way (the default; what the
	// Figure 5 machines implement).
	LRU Replacement = iota
	// RandomReplacement evicts a pseudo-random way. Provided for the
	// ablation of Section IV.4: random replacement converts the sharp,
	// placement-dependent thrashing cliff into a gradual miss gradient.
	RandomReplacement
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	// Name is a human label such as "L1" or "L2".
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// LineBytes is the cache line size.
	LineBytes int
	// FillBytesPerCycle is the bandwidth of the interface that fills this
	// level from the next one down (or from memory for the last level).
	FillBytesPerCycle float64
	// Replacement selects the victim policy (default LRU).
	Replacement Replacement
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int {
	return c.SizeBytes / (c.Ways * c.LineBytes)
}

// Validate checks geometric consistency.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("memsim: %s: non-positive geometry %+v", c.Name, c)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("memsim: %s: size %d not divisible by ways*line (%d*%d)", c.Name, c.SizeBytes, c.Ways, c.LineBytes)
	}
	if c.FillBytesPerCycle <= 0 {
		return fmt.Errorf("memsim: %s: non-positive fill bandwidth", c.Name)
	}
	return nil
}

// replRNGSeed is the initial xorshift state for RandomReplacement victim
// draws; shared by NewCache and Flush so both start identical streams.
const replRNGSeed = 0x9e3779b97f4a7c15

// Cache is one set-associative cache level with LRU replacement.
type Cache struct {
	cfg  CacheConfig
	sets int
	// tags[set*ways+way]; valid[..] mirrors it.
	tags  []uint64
	valid []bool
	dirty []bool
	age   []uint64
	tick  uint64
	// rng is a tiny xorshift state for RandomReplacement victims; it is
	// deterministic so experiments stay reproducible.
	rng uint64

	// pow2 marks a geometry whose line size and set count are both powers
	// of two (every Figure 5 machine), letting the address split run as
	// shifts and masks instead of three integer divisions — the single
	// hottest operation of a simulated campaign.
	pow2      bool
	lineShift uint
	setShift  uint
	setMask   uint64

	// epoch/setEpoch implement O(1) Flush: Flush bumps epoch, and a set
	// whose setEpoch lags is cleared lazily on first touch. Indexed-mode
	// campaigns flush the whole hierarchy before every trial, so an eager
	// sweep over all lines (131072 for an 8 MB L3) would dominate small
	// kernels.
	epoch    uint64
	setEpoch []uint64

	// mruLine/mruIdx remember the last line hit or installed, giving
	// strided-sequential kernels — which touch one line several times
	// before moving on — a same-line fast path that skips the set scan.
	// The entry is consistent by construction: evicting the MRU line
	// installs its replacement into the same slot, which updates the MRU
	// to that replacement, and a Flush bumps epoch past mruEpoch.
	mruLine  uint64
	mruIdx   int
	mruEpoch uint64

	hits, misses, writebacks uint64
}

// NewCache builds a cache from a validated config.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	n := sets * cfg.Ways
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		tags:     make([]uint64, n),
		valid:    make([]bool, n),
		dirty:    make([]bool, n),
		age:      make([]uint64, n),
		rng:      replRNGSeed,
		setEpoch: make([]uint64, sets),
		mruEpoch: ^uint64(0), // no MRU entry yet
	}
	if lb, s := uint64(cfg.LineBytes), uint64(sets); lb&(lb-1) == 0 && s&(s-1) == 0 {
		c.pow2 = true
		c.lineShift = uint(bits.TrailingZeros64(lb))
		c.setShift = uint(bits.TrailingZeros64(s))
		c.setMask = s - 1
	}
	return c, nil
}

// locate splits a physical address into its line, set and tag. The pow2
// path is bit-for-bit identical to the division path: line/2^k == line>>k
// and line%2^k == line&(2^k-1) for non-negative integers.
func (c *Cache) locate(phys uint64) (set int, tag uint64) {
	if c.pow2 {
		line := phys >> c.lineShift
		return int(line & c.setMask), line >> c.setShift
	}
	line := phys / uint64(c.cfg.LineBytes)
	return int(line % uint64(c.sets)), line / uint64(c.sets)
}

// materialize lazily applies a pending Flush to one set: if the set was
// last touched in an earlier epoch, its ways are invalidated now.
func (c *Cache) materialize(set int) {
	if c.setEpoch[set] == c.epoch {
		return
	}
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		c.valid[base+w] = false
		c.dirty[base+w] = false
	}
	c.setEpoch[set] = c.epoch
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Access looks up the line containing physical address phys; on a miss the
// line is installed, evicting the LRU way. It reports whether the access hit.
func (c *Cache) Access(phys uint64) bool {
	hit, _, _ := c.AccessRW(phys, false)
	return hit
}

// AccessRW is Access with store semantics: a write marks the line dirty
// (write-allocate on a miss). When a dirty victim is evicted, the method
// reports it together with the victim's line address so the caller can
// propagate the writeback to the next level.
func (c *Cache) AccessRW(phys uint64, write bool) (hit bool, evictedDirty bool, evictedLine uint64) {
	if c.mruHit(phys, write) {
		return true, false, 0
	}
	set, tag := c.locate(phys)
	c.materialize(set)
	base := set * c.cfg.Ways
	c.tick++
	victim := base
	victimAge := ^uint64(0)
	hasInvalid := false
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.age[i] = c.tick
			if write {
				c.dirty[i] = true
			}
			c.hits++
			c.noteMRU(phys, i)
			return true, false, 0
		}
		if !c.valid[i] && !hasInvalid {
			victim = i
			hasInvalid = true
		} else if !hasInvalid && c.age[i] < victimAge {
			victim = i
			victimAge = c.age[i]
		}
	}
	if !hasInvalid && c.cfg.Replacement == RandomReplacement {
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		victim = base + int(c.rng%uint64(c.cfg.Ways))
	}
	if c.valid[victim] && c.dirty[victim] {
		evictedDirty = true
		evictedLine = (c.tags[victim]*uint64(c.sets) + uint64(set)) * uint64(c.cfg.LineBytes)
		c.writebacks++
	}
	c.tags[victim] = tag
	c.valid[victim] = true
	c.dirty[victim] = write
	c.age[victim] = c.tick
	c.misses++
	c.noteMRU(phys, victim)
	return false, evictedDirty, evictedLine
}

// mruHit services an access to the most recently touched line without the
// set scan. The bookkeeping is the exact hit path of the scan: LRU age
// refresh, dirty marking, hit count.
func (c *Cache) mruHit(phys uint64, write bool) bool {
	if c.mruEpoch != c.epoch || phys>>c.lineShift != c.mruLine || !c.pow2 {
		return false
	}
	c.tick++
	c.age[c.mruIdx] = c.tick
	if write {
		c.dirty[c.mruIdx] = true
	}
	c.hits++
	return true
}

// mruHits charges k further loads of the MRU line in one step — exactly
// the state k successive read mruHits leave behind: the tick and hit count
// advance by k and the line's age is the final tick. The caller guarantees
// the MRU entry is live and covers the loads.
func (c *Cache) mruHits(k uint64) {
	c.tick += k
	c.age[c.mruIdx] = c.tick
	c.hits += k
}

// noteMRU records the line just hit or installed as the MRU entry.
func (c *Cache) noteMRU(phys uint64, idx int) {
	if c.pow2 {
		c.mruLine = phys >> c.lineShift
		c.mruIdx = idx
		c.mruEpoch = c.epoch
	}
}

// Contains reports whether the line holding phys is currently cached,
// without touching LRU state or counters.
func (c *Cache) Contains(phys uint64) bool {
	set, tag := c.locate(phys)
	if c.setEpoch[set] != c.epoch {
		return false // set invalidated by a Flush not yet materialized
	}
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			return true
		}
	}
	return false
}

// Hits returns the number of hits since the last ResetStats.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of misses since the last ResetStats.
func (c *Cache) Misses() uint64 { return c.misses }

// Writebacks returns the number of dirty evictions since the last
// ResetStats.
func (c *Cache) Writebacks() uint64 { return c.writebacks }

// ResetStats clears the hit/miss/writeback counters but keeps contents.
func (c *Cache) ResetStats() { c.hits, c.misses, c.writebacks = 0, 0, 0 }

// Flush invalidates all lines and clears counters, returning the cache to
// its freshly-constructed state (including the victim-choice rng, so a
// flushed cache replays exactly like a new one). It runs in O(1): the
// invalidation is recorded as an epoch bump and applied to each set lazily
// on its next access.
func (c *Cache) Flush() {
	c.epoch++
	c.tick = 0
	c.rng = replRNGSeed
	c.ResetStats()
}

// Hierarchy is an ordered stack of cache levels (L1 first) in front of
// memory. All levels of one hierarchy share the L1 line size for fills.
type Hierarchy struct {
	levels []*Cache
	// fills[i] counts lines installed into level i since ResetStats.
	fills []uint64
	// writeTraffic[i] counts dirty lines written OUT of level i (crossing
	// the same interface the fills use).
	writeTraffic []uint64
	// memFills counts lines fetched from memory.
	memFills uint64
	accesses uint64
}

// NewHierarchy builds a hierarchy from level configs (L1 first).
func NewHierarchy(cfgs []CacheConfig) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("memsim: hierarchy needs at least one level")
	}
	h := &Hierarchy{
		fills:        make([]uint64, len(cfgs)),
		writeTraffic: make([]uint64, len(cfgs)),
	}
	for _, cfg := range cfgs {
		c, err := NewCache(cfg)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, c)
	}
	return h, nil
}

// Levels returns the cache levels, L1 first.
func (h *Hierarchy) Levels() []*Cache { return h.levels }

// Access performs one load at physical address phys and returns the depth at
// which it was satisfied: 0 for L1, 1 for L2, ..., len(levels) for memory.
func (h *Hierarchy) Access(phys uint64) int {
	return h.AccessRW(phys, false)
}

// AccessRW performs one load or store. Stores are write-allocate at L1;
// dirty victims are written back into the next level (possibly cascading),
// and each writeback is charged to the interface it crosses.
func (h *Hierarchy) AccessRW(phys uint64, write bool) int {
	h.accesses++
	// Same-line L1 hits — the bulk of a strided-sequential kernel — skip
	// the level walk entirely.
	if h.levels[0].mruHit(phys, write) {
		return 0
	}
	depth := len(h.levels)
	for i, c := range h.levels {
		hit, evDirty, evLine := c.AccessRW(phys, write && i == 0)
		if evDirty {
			h.writeTraffic[i]++
			h.writeback(i+1, evLine)
		}
		if hit {
			depth = i
			break
		}
		h.fills[i]++
	}
	if depth == len(h.levels) {
		h.memFills++
	}
	return depth
}

// streamLoads performs the n loads phys, phys+stride, phys+2*stride, ...
// one L1 line at a time. The first load of each line takes the full
// AccessRW, which leaves that line as L1's MRU entry (writebacks it
// triggers only touch deeper levels); the line's remaining loads would each
// be an mruHit, so they are charged in one step. The count comes from the
// distance to the line's end, so strides that do not divide the line and a
// tail shorter than a line stay exact. Strides of a line or more, and L1
// geometries the MRU entry does not track, keep per-load accesses.
func (h *Hierarchy) streamLoads(phys, stride uint64, n int) {
	l1 := h.levels[0]
	if !l1.pow2 || stride >= uint64(l1.cfg.LineBytes) {
		for ; n > 0; n-- {
			h.AccessRW(phys, false)
			phys += stride
		}
		return
	}
	for n > 0 {
		h.AccessRW(phys, false)
		lineEnd := (phys>>l1.lineShift + 1) << l1.lineShift
		rest := (lineEnd - phys - 1) / stride // further loads on this line
		if rest >= uint64(n) {
			rest = uint64(n - 1)
		}
		if rest > 0 {
			h.accesses += rest
			l1.mruHits(rest)
		}
		phys += (rest + 1) * stride
		n -= int(rest) + 1
	}
}

// writeback installs a dirty line into level j (or memory when j is past
// the last level), cascading any dirty victim it displaces.
func (h *Hierarchy) writeback(j int, lineAddr uint64) {
	if j >= len(h.levels) {
		return // absorbed by memory
	}
	_, evDirty, evLine := h.levels[j].AccessRW(lineAddr, true)
	if evDirty {
		h.writeTraffic[j]++
		h.writeback(j+1, evLine)
	}
}

// WriteTraffic returns a copy of the per-level dirty-eviction counters.
func (h *Hierarchy) WriteTraffic() []uint64 {
	return append([]uint64(nil), h.writeTraffic...)
}

// Accesses returns the number of accesses since the last ResetStats.
func (h *Hierarchy) Accesses() uint64 { return h.accesses }

// Fills returns a copy of the per-level fill counters; the extra final
// element counts fetches from memory.
func (h *Hierarchy) Fills() []uint64 {
	out := make([]uint64, len(h.fills)+1)
	copy(out, h.fills)
	out[len(h.fills)] = h.memFills
	return out
}

// ResetStats clears all counters but keeps cache contents.
func (h *Hierarchy) ResetStats() {
	h.accesses = 0
	h.memFills = 0
	for i := range h.fills {
		h.fills[i] = 0
		h.writeTraffic[i] = 0
	}
	for _, c := range h.levels {
		c.ResetStats()
	}
}

// Flush invalidates every level.
func (h *Hierarchy) Flush() {
	for _, c := range h.levels {
		c.Flush()
	}
	h.ResetStats()
}
