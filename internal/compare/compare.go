// Package compare is the differential campaign comparator: it pairs the
// campaigns of two suite runs — live results or replayed cache entries —
// and decides, with statistical backing, whether each campaign regressed,
// improved, or held. It closes the loop the paper's offline-analysis stage
// opens: because every run keeps its full raw record set (the suite cache
// stores campaigns whole, in design order), two runs can be compared by
// resampling the actual observations instead of trusting reported
// aggregates — the comparison an aggregate-only benchmark cannot support.
//
// Pairing is by campaign name, cross-checked by engine, with the
// content-addressed cache key as the config identity: identical keys mean
// identical (engine, config, design, seed, code) and therefore — by the
// suite's determinism guarantee — identical records, which short-circuits
// to a pass with zero effect. Differing keys trigger the statistical gate:
// a percentile-bootstrap confidence interval on the shift of medians
// (stats.ShiftCI over the raw values), oriented by the metric direction the
// engine's registry definition declares (internal/engine): bandwidth and
// effective MHz are higher-better, operation latency is lower-better. A
// campaign regresses only when the interval
// excludes zero on the worse side AND the relative shift clears a
// practical-significance floor, so resampling noise and irrelevantly tiny
// drifts both stay quiet. Structural probes — mode-count changes
// (stats.SplitModes) and piecewise-breakpoint drift (stats.SelectSegmented)
// — annotate the verdict with flags but do not gate it: they are diagnosis
// leads for the analyst, not pass/fail evidence.
//
// Every product is deterministic: the bootstrap seed derives from the gate
// seed and the campaign name, campaigns sort by name, and the verdict file
// is canonical JSON — two comparisons of the same records are
// byte-identical regardless of worker counts or directory layout.
package compare

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"opaquebench/internal/core"
	"opaquebench/internal/engine"
	"opaquebench/internal/runner"
	"opaquebench/internal/stats"
	"opaquebench/internal/suite"
)

// Sample is one campaign's raw record set from one suite run.
type Sample struct {
	// Campaign and Engine identify the campaign.
	Campaign string
	Engine   string
	// Seed is the campaign seed the records were produced under.
	Seed uint64
	// Key is the content-addressed cache key — the campaign's config
	// identity. Empty for samples not taken from a cache.
	Key string
	// Records is the full raw record set in design order.
	Records []core.RawRecord
}

// Values returns the primary metric of every record, in design order.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.Records))
	for i, rec := range s.Records {
		out[i] = rec.Value
	}
	return out
}

// SampleFromEntry rebuilds a campaign sample from a cached suite entry by
// replaying it into memory — the same record sequence the file sinks see.
func SampleFromEntry(key string, e *suite.Entry) (Sample, error) {
	var m runner.MemorySink
	if err := e.Replay(&m); err != nil {
		return Sample{}, fmt.Errorf("compare: replay %s: %w", key, err)
	}
	return Sample{
		Campaign: e.Campaign,
		Engine:   e.Engine,
		Seed:     e.Seed,
		Key:      key,
		Records:  m.Records,
	}, nil
}

// SampleFromRounds rebuilds one adaptive campaign's sample from its
// per-round cache entries, given in round order: the records concatenate
// into the single stream the campaign's sinks saw, and the sample key
// joins the round keys — so two runs whose round chains are identical
// entry for entry still short-circuit through the identical-records fast
// path.
func SampleFromRounds(keys []string, entries []*suite.Entry) (Sample, error) {
	if len(entries) == 0 || len(keys) != len(entries) {
		return Sample{}, fmt.Errorf("compare: want matched round keys and entries, got %d/%d", len(keys), len(entries))
	}
	var out Sample
	for i, e := range entries {
		s, err := SampleFromEntry(keys[i], e)
		if err != nil {
			return Sample{}, err
		}
		if i == 0 {
			out = s
			continue
		}
		if s.Campaign != out.Campaign || s.Engine != out.Engine {
			return Sample{}, fmt.Errorf("compare: round entries disagree: %s/%s vs %s/%s",
				out.Campaign, out.Engine, s.Campaign, s.Engine)
		}
		out.Key += "+" + s.Key
		out.Records = append(out.Records, s.Records...)
	}
	return out, nil
}

// loadSamples reads every entry of an open cache and groups the samples by
// campaign name.
func loadSamples(cache *suite.Cache) (map[string][]Sample, error) {
	keys := cache.Keys()
	loaded := make([]loadedEntry, 0, len(keys))
	for _, key := range keys {
		entry, err := cache.Load(key)
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, loadedEntry{key, entry})
	}
	return samplesFromEntries(loaded)
}

// samplesFromEntries groups loaded cache entries into per-campaign samples
// — the shared grouping behind the whole-store and per-run loaders.
func samplesFromEntries(loaded []loadedEntry) (map[string][]Sample, error) {
	byCampaign := make(map[string][]loadedEntry, len(loaded))
	var order []string
	for _, l := range loaded {
		if _, seen := byCampaign[l.entry.Campaign]; !seen {
			order = append(order, l.entry.Campaign)
		}
		byCampaign[l.entry.Campaign] = append(byCampaign[l.entry.Campaign], l)
	}
	out := make(map[string][]Sample, len(byCampaign))
	for _, campaign := range order {
		group := byCampaign[campaign]
		// The rounds of one adaptive campaign are a chain, not an
		// ambiguity: when every entry carries a distinct positive round
		// index, reassemble them into the single record stream the
		// campaign produced. Anything else (static duplicates, a mix of
		// round and non-round entries) keeps the per-entry samples and is
		// judged ambiguous downstream.
		if rounds, ok := roundChain(group); ok {
			roundKeys := make([]string, len(rounds))
			entries := make([]*suite.Entry, len(rounds))
			for i, l := range rounds {
				roundKeys[i] = l.key
				entries[i] = l.entry
			}
			s, err := SampleFromRounds(roundKeys, entries)
			if err != nil {
				return nil, err
			}
			out[campaign] = append(out[campaign], s)
			continue
		}
		for _, l := range group {
			s, err := SampleFromEntry(l.key, l.entry)
			if err != nil {
				return nil, err
			}
			out[campaign] = append(out[campaign], s)
		}
	}
	return out, nil
}

// loadedEntry pairs a cache entry with the key it was stored under.
type loadedEntry struct {
	key   string
	entry *suite.Entry
}

// roundChain reports whether the group is the complete round chain of one
// adaptive campaign — more than one entry, round indices exactly 1..N —
// and returns it sorted by round. The contiguity requirement keeps stale
// partial chains (a lingering round-2 entry whose round-1 sibling was
// since overwritten) out of the merge: those fall back to per-entry
// samples and are judged ambiguous downstream, the loud path. A complete
// chain always merges, even when the spec has since stopped running those
// rounds — the cache faithfully records what that study measured, and
// comparing it against a differently-designed candidate is the ordinary
// statistical gate over differing keys, exactly as when a static
// campaign's design is edited between runs.
func roundChain(group []loadedEntry) ([]loadedEntry, bool) {
	if len(group) < 2 {
		return nil, false
	}
	seen := map[int]bool{}
	for _, l := range group {
		if l.entry.Round < 1 || l.entry.Round > len(group) || seen[l.entry.Round] {
			return nil, false
		}
		seen[l.entry.Round] = true
	}
	sorted := append([]loadedEntry(nil), group...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].entry.Round < sorted[j].entry.Round })
	return sorted, true
}

// Gate tunes the statistical regression gate.
type Gate struct {
	// Level is the bootstrap confidence level (default 0.99: a perf gate
	// should be slow to cry wolf).
	Level float64
	// Reps is the bootstrap replication count (default 2000).
	Reps int
	// Seed drives the bootstrap resampling; the per-campaign seed derives
	// from it and the campaign name, so verdicts are deterministic and
	// campaigns independent (default 1).
	Seed uint64
	// MinRelShift is the practical-significance floor: a shift whose
	// relative magnitude stays below it never gates, however tight the CI
	// (default 0.01 — one percent).
	MinRelShift float64
	// MaxBreaks bounds the piecewise probe's neutral segmented search;
	// 0 keeps the default 3, negative disables the probe.
	MaxBreaks int
	// MinSeg is the minimum observations per fitted segment (default 10).
	MinSeg int
	// BreakDriftTol is the relative breakpoint-position drift (against the
	// baseline x-span) above which the drift flag raises (default 0.1).
	BreakDriftTol float64
}

func (g Gate) withDefaults() Gate {
	if g.Level <= 0 || g.Level >= 1 {
		g.Level = 0.99
	}
	if g.Reps < 10 {
		g.Reps = 2000
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	if g.MinRelShift <= 0 {
		g.MinRelShift = 0.01
	}
	if g.MaxBreaks == 0 {
		g.MaxBreaks = 3
	}
	if g.MinSeg < 2 {
		g.MinSeg = 10
	}
	if g.BreakDriftTol <= 0 {
		g.BreakDriftTol = 0.1
	}
	return g
}

// pairSeed derives the campaign's bootstrap seed from the gate seed, so
// adding or removing campaigns cannot move another campaign's verdict.
func pairSeed(seed uint64, campaign string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(campaign))
	return seed ^ h.Sum64()
}

// Compare pairs every campaign of the two runs by name and applies the
// statistical gate to each pair. Campaigns missing on one side, paired
// across engines, or cached ambiguously are verdicted incomparable rather
// than guessed at. The result is deterministic: campaigns sort by name and
// all resampling is seeded.
func Compare(baseline, candidate map[string][]Sample, g Gate) *Comparison {
	g = g.withDefaults()
	names := map[string]bool{}
	for n := range baseline {
		names[n] = true
	}
	for n := range candidate {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	c := &Comparison{
		Level:       g.Level,
		Reps:        g.Reps,
		Seed:        g.Seed,
		MinRelShift: g.MinRelShift,
	}
	for _, name := range sorted {
		v := comparePair(name, baseline[name], candidate[name], g)
		c.Campaigns = append(c.Campaigns, v)
		switch v.Verdict {
		case VerdictPass:
			c.Pass++
		case VerdictRegressed:
			c.Regressed++
		case VerdictImproved:
			c.Improved++
		default:
			c.Incomparable++
		}
	}
	return c
}

// comparePair gates one campaign pair.
func comparePair(name string, base, cand []Sample, g Gate) CampaignVerdict {
	v := CampaignVerdict{Campaign: name, Verdict: VerdictIncomparable}
	switch {
	case len(base) == 0:
		v.Reason = "absent from the baseline run"
		return v
	case len(cand) == 0:
		v.Reason = "absent from the candidate run"
		return v
	case len(base) > 1:
		v.Reason = fmt.Sprintf("%d baseline cache entries named %q — stale entries from edited runs; use a fresh cache store", len(base), name)
		return v
	case len(cand) > 1:
		v.Reason = fmt.Sprintf("%d candidate cache entries named %q — stale entries from edited runs; use a fresh cache store", len(cand), name)
		return v
	}
	b, a := base[0], cand[0]
	v.Engine = b.Engine
	v.BaselineKey = b.Key
	v.CandidateKey = a.Key
	v.BaselineN = len(b.Records)
	v.CandidateN = len(a.Records)
	if b.Engine != a.Engine {
		v.Engine = ""
		v.Reason = fmt.Sprintf("engine changed: %s vs %s", b.Engine, a.Engine)
		return v
	}
	def, known := engine.Lookup(b.Engine)
	if !known {
		v.Reason = fmt.Sprintf("unknown engine %q: metric direction undefined", b.Engine)
		return v
	}
	higher := def.HigherIsBetter()
	v.HigherIsBetter = higher
	if len(b.Records) == 0 || len(a.Records) == 0 {
		v.Reason = "a side has no records"
		return v
	}

	bv, av := b.Values(), a.Values()
	v.BaselineMedian = stats.Median(bv)
	v.CandidateMedian = stats.Median(av)

	if equalValues(bv, av) {
		// The suite determinism guarantee's fast path: identical records
		// (always the case when the cache keys match) compare to a pass
		// with exactly zero effect — no resampling, no structural probes,
		// since identical series cannot drift from themselves. This is
		// the path every cache-hit campaign of a gated run takes.
		v.Verdict = VerdictPass
		v.Identical = true
		v.CILevel = g.Level
		return v
	}
	if v.BaselineMedian == 0 {
		// The practical-significance floor is relative to the baseline
		// median; against a zero baseline it is undefined, and silently
		// passing would let any regression through. Loud, like every
		// other unjudgeable pair.
		v.Reason = "baseline median is zero: relative shift undefined"
		return v
	}
	probeStructure(&v, &b, &a, g)

	ci, err := stats.MedianShiftCI(bv, av, g.Level, g.Reps, pairSeed(g.Seed, name))
	if err != nil {
		v.Reason = fmt.Sprintf("bootstrap failed: %v", err)
		return v
	}
	v.Shift = v.CandidateMedian - v.BaselineMedian
	v.RelShift = v.Shift / math.Abs(v.BaselineMedian)
	v.CILo, v.CIHi, v.CILevel = ci.Lo, ci.Hi, ci.Level

	worse := ci.Hi < 0  // the whole interval is a drop
	better := ci.Lo > 0 // the whole interval is a rise
	if !higher {
		worse, better = better, worse
	}
	practical := math.Abs(v.RelShift) >= g.MinRelShift
	switch {
	case worse && practical:
		v.Verdict = VerdictRegressed
	case better && practical:
		v.Verdict = VerdictImproved
	default:
		v.Verdict = VerdictPass
	}
	return v
}

// probeStructure runs the non-gating diagnosis probes: mode counts on the
// pooled values and breakpoint drift of the neutral piecewise fit over the
// primary numeric factor.
func probeStructure(v *CampaignVerdict, base, cand *Sample, g Gate) {
	v.BaselineModes = modeCount(base.Values())
	v.CandidateModes = modeCount(cand.Values())
	if v.BaselineModes != v.CandidateModes {
		v.Flags = append(v.Flags, FlagModesChanged)
	}
	if g.MaxBreaks < 0 {
		return
	}
	factor := primaryFactor(base.Records)
	if factor == "" || factor != primaryFactor(cand.Records) {
		return
	}
	bb, span, okB := fitBreaks(base.Records, factor, g)
	cb, _, okC := fitBreaks(cand.Records, factor, g)
	if !okB || !okC {
		return
	}
	v.BaselineBreaks = bb
	v.CandidateBreaks = cb
	if len(bb) != len(cb) {
		v.Flags = append(v.Flags, FlagBreakCountChanged)
		return
	}
	drift := 0.0
	for i := range bb {
		if d := math.Abs(cb[i]-bb[i]) / span; d > drift {
			drift = d
		}
	}
	v.BreakDrift = drift
	if drift > g.BreakDriftTol {
		v.Flags = append(v.Flags, FlagBreakDrift)
	}
}

// modeCount reports 2 when the pooled values split into genuine modes
// (the Figure 10/11 bimodality diagnosis), else 1.
func modeCount(vals []float64) int {
	split, err := stats.SplitModes(vals)
	if err == nil && split.Bimodal(0.05, 3) {
		return 2
	}
	return 1
}

// primaryFactor picks the numeric factor the piecewise probe runs over:
// the conventional names first ("size", then "nloops"), else the first
// factor, in sorted order, with at least two distinct parseable levels.
func primaryFactor(recs []core.RawRecord) string {
	distinct := map[string]map[float64]bool{}
	for _, rec := range recs {
		for k := range rec.Point {
			x, err := rec.Point.Float(k)
			if err != nil {
				continue
			}
			if distinct[k] == nil {
				distinct[k] = map[float64]bool{}
			}
			distinct[k][x] = true
		}
	}
	for _, preferred := range []string{"size", "nloops"} {
		if len(distinct[preferred]) >= 2 {
			return preferred
		}
	}
	names := make([]string, 0, len(distinct))
	for k, levels := range distinct {
		if len(levels) >= 2 {
			names = append(names, k)
		}
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	return names[0]
}

// fitBreaks runs the neutral relative-error segmented search over (factor,
// value) and returns the interior breakpoints plus the x-span drift is
// measured against. ok is false when no feasible fit exists — small
// campaigns simply skip the probe.
func fitBreaks(recs []core.RawRecord, factor string, g Gate) (breaks []float64, span float64, ok bool) {
	var xs, ys []float64
	for _, rec := range recs {
		x, err := rec.Point.Float(factor)
		if err != nil {
			continue
		}
		xs = append(xs, x)
		ys = append(ys, rec.Value)
	}
	if len(xs) < 2*g.MinSeg {
		return nil, 0, false
	}
	pf, err := stats.SelectSegmentedRelative(xs, ys, g.MaxBreaks, g.MinSeg)
	if err != nil {
		return nil, 0, false
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if hi == lo {
		return nil, 0, false
	}
	// Breaks is non-nil even for k=0 fits; normalize nil so JSON stays
	// canonical across paths.
	if len(pf.Breaks) == 0 {
		return nil, hi - lo, true
	}
	return pf.Breaks, hi - lo, true
}

func equalValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
