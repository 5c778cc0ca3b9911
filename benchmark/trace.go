package main

import (
	"sort"
	"sync"
	"time"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/engine"
	"opaquebench/internal/membench"
)

// The traced run swaps every campaign's engine for a wrapper registered as
// "trace-<engine>". The wrapper delegates decoding, building and direction
// to the real definition and times each Execute. No output names the engine,
// so a traced campaign writes the same bytes as an untraced one; only the
// cache keys differ, which keeps traced and untraced results apart.
const tracePrefix = "trace-"

func init() {
	for _, name := range engine.Names() {
		def, _ := engine.Lookup(name)
		engine.Register(traceDef{Definition: def})
	}
}

// engineName is the registry name a spec uses for eng.
func engineName(eng string, traced bool) string {
	if traced {
		return tracePrefix + eng
	}
	return eng
}

type traceDef struct{ engine.Definition }

func (d traceDef) Name() string { return tracePrefix + d.Definition.Name() }

func (d traceDef) Build(spec engine.Spec, seed uint64) (core.EngineFactory, *doe.Design, error) {
	f, design, err := d.Definition.Build(spec, seed)
	if err != nil {
		return nil, nil, err
	}
	name := d.Definition.Name()
	return core.EngineFactoryFunc(func() (core.Engine, error) {
		e, err := f.NewEngine()
		if err != nil {
			return nil, err
		}
		return &traceEngine{Engine: e, agg: tr.engine(name, seed)}, nil
	}), design, nil
}

// traceEngine times each Execute into its own aggregate. The runner drives
// each engine instance from a single worker goroutine, so the aggregate
// needs no lock; it is read only after the run that used it has returned.
type traceEngine struct {
	core.Engine
	agg *execTrace
}

func (e *traceEngine) Execute(t doe.Trial) (core.RawRecord, error) {
	start := tr.now()
	rec, err := e.Engine.Execute(t)
	end := tr.now()
	a := e.agg
	if a.trials == 0 {
		a.first = start
	}
	a.last = end
	a.busy += end - start
	a.trials++
	if a.engine == "membench" {
		if kp, err := membench.ParseParams(t.Point); err == nil {
			st := a.strides[kp.Stride]
			st.ns += end - start
			st.accesses += kp.Accesses()
			a.strides[kp.Stride] = st
		}
	}
	return rec, err
}

// tr is the process's tracer. It is package-level because engine
// definitions are registered once at start-up and cannot carry a per-run
// value.
var tr = newTracer()

// tracer holds everything a traced run records, in memory until the run
// writes it out. Engine executions are aggregated per engine instance rather
// than kept as spans: a light-cold op alone runs 2,272 trials.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	engines map[uint64][]*execTrace // by campaign seed; seeds are unique within a run
	spans   []span
}

// execTrace aggregates traced Execute calls: of one engine instance while
// it runs, of a whole campaign once merged.
type execTrace struct {
	engine string
	// first and last bound the trials: the first Execute start and the last
	// Execute end, in ns since the tracer's epoch.
	first, last int64
	busy        int64 // summed Execute time, ns
	trials      int
	// strides sums, for membench trials, Execute time and the kernel's
	// computed access count by stride.
	strides map[int]accessTime
}

type accessTime struct {
	ns       int64
	accesses uint64
}

// span is one timed interval. Op is the id of the op it belongs to (-1 for
// none) and Parent the index of the enclosing span (-1 for a root); N is a
// work count where the layer has one (records replayed).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), engines: map[uint64][]*execTrace{}}
}

// reset drops everything recorded so far; a traced run starts with it.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.engines = map[uint64][]*execTrace{}
	t.spans = nil
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// engine registers the aggregate of a new engine instance of the campaign
// seeded seed.
func (t *tracer) engine(name string, seed uint64) *execTrace {
	a := &execTrace{engine: name, strides: map[int]accessTime{}}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.engines[seed] = append(t.engines[seed], a)
	return a
}

// campaign merges the aggregates of every engine instance of the campaign
// seeded seed. Call it only once that campaign's run has returned.
func (t *tracer) campaign(seed uint64) (execTrace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := execTrace{strides: map[int]accessTime{}}
	for _, a := range t.engines[seed] {
		if a.trials == 0 {
			continue // an engine the planner probed, or a worker left idle
		}
		if c.trials == 0 {
			c.engine, c.first, c.last = a.engine, a.first, a.last
		}
		c.first, c.last = min(c.first, a.first), max(c.last, a.last)
		c.busy += a.busy
		c.trials += a.trials
		for stride, st := range a.strides {
			sum := c.strides[stride]
			sum.ns += st.ns
			sum.accesses += st.accesses
			c.strides[stride] = sum
		}
	}
	return c, c.trials > 0
}

// add appends a span and returns its index, the handle children name as
// their Parent.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// set fixes the interval of a span added before its end was known.
func (t *tracer) set(i int, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].Start, t.spans[i].End = start, end
}

// end closes span i at the current time.
func (t *tracer) end(i int) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Overlapping children (campaigns running
// side by side) are counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, reach := int64(0), s.Start
		for _, v := range ivs {
			if v.b <= reach {
				continue
			}
			covered += v.b - max(v.a, reach)
			reach = v.b
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}
