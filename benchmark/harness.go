package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"opaquebench/internal/adapt"
	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/runner"
	"opaquebench/internal/stats"
	"opaquebench/internal/store"
	"opaquebench/internal/suite"
)

// runConfig is one workload run.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	// minOps is the fewest timed ops: the phase runs past seconds until it
	// has them, so the 90th percentile has at least minBeyond samples past
	// it.
	minOps int
	// setups is the fewest times set-up runs; setup_s is their median. Set-up
	// repeats past setups, up to maxSetups, until setupFloor has passed, so
	// a workload whose set-up takes milliseconds still has enough samples
	// for a steady median.
	setups     int
	setupFloor time.Duration
	trace      bool
}

const (
	defaultMinOps     = 120
	defaultSetups     = 11
	defaultSetupFloor = time.Second
	maxSetups         = 51
	// rssAtOps is the op count at which peak_rss_mb is read. serve-loop's
	// daemon keeps every job, so its resident set grows with the ops done;
	// read at a fixed count, it measures the same work on a fast host and a
	// slow one. A run with fewer ops reads it at the end of the phase.
	rssAtOps = 600
	// phaseCap bounds the timed phase whatever minOps asks, so a run on a
	// slow host still ends within its time limit.
	phaseCap = 100 * time.Second
	// maxProbes bounds how many ops a traced run re-times after the phase.
	maxProbes = 40
)

// result is everything one workload run measured. It is the record the
// benchmark writes and compare reads.
type result struct {
	Workload     string    `json:"workload"`
	Seed         uint64    `json:"seed"`
	Trace        bool      `json:"trace"`
	Seconds      float64   `json:"seconds"`
	Host         hostShape `json:"host"`
	NoiseStart   noise     `json:"noise_start"`
	NoiseEnd     noise     `json:"noise_end"`
	Noisy        bool      `json:"noisy"`
	SetupSeconds []float64 `json:"setup_seconds"`
	// PhaseSeconds is the timed phase less the reference kernel's pauses.
	PhaseSeconds float64    `json:"phase_seconds"`
	Reference    *reference `json:"reference"`
	// Scale is refNominalMs over the median reference sample; Metrics are
	// RawMetrics at the nominal host speed.
	Scale      float64          `json:"scale"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Failures   []string         `json:"failures,omitempty"`
	Metrics    map[string]value `json:"metrics"`
	RawMetrics map[string]value `json:"raw_metrics"`
	Layers     map[string]value `json:"layers,omitempty"`
	// Spans summarizes the traced spans by name.
	Spans map[string]spanStat `json:"spans,omitempty"`
	// Overhead is the traced op_ms_p50 over the untraced one, minus 1.
	Overhead *float64 `json:"tracing_overhead,omitempty"`

	samples []opSample
	trace   []span
}

// spanStat is the per-name summary of a traced run's spans.
type spanStat struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	SelfMs float64 `json:"mean_self_ms"`
}

// runWorkload sets the workload up cfg.setups times, keeps the last set-up
// for a timed phase of closed-loop ops, then checks the outputs and, in a
// traced run, re-times the layers.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	wl, ok := lookupWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	root, err := os.MkdirTemp("", "bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	if cfg.trace {
		tr.reset()
	}
	res := &result{Workload: wl.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Host: currentShape(), NoiseStart: readNoise()}
	ref, err := startReference(res.Host.W)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	res.Reference = ref
	var inst instance
	setupStart := time.Now()
	for i := 0; i < max(cfg.setups, 1) || (i < maxSetups && time.Since(setupStart) < cfg.setupFloor); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		e := &env{name: wl.name, seed: cfg.seed, w: res.Host.W, trace: cfg.trace, dir: filepath.Join(root, fmt.Sprint("setup", i))}
		if err := os.MkdirAll(e.dir, 0o777); err != nil {
			return nil, err
		}
		start := time.Now()
		if inst, err = wl.start(ctx, e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		res.SetupSeconds = append(res.SetupSeconds, time.Since(start).Seconds())
	}
	defer inst.close()

	for range refWarmSamples {
		if err := ref.sample(); err != nil {
			return nil, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	log0 := inst.logSize()
	samples, active, rss, err := runPhase(ctx, inst, cfg, ref)
	runtime.ReadMemStats(&after)
	log1 := inst.logSize()
	res.NoiseEnd = readNoise()
	res.Noisy = noisy(res.NoiseStart, res.NoiseEnd, res.Host.NumCPU)
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	if err != nil {
		return nil, err
	}
	if err := ref.close(); err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}

	if res.Failures, err = inst.finish(ctx, samples); err != nil {
		return nil, fmt.Errorf("%s: verification: %w", wl.name, err)
	}
	res.samples = samples
	res.PhaseSeconds = active.Seconds()
	res.Attempted = len(samples)
	res.Failed = len(res.Failures)
	res.RawMetrics = endToEndMetrics(res, after.TotalAlloc-before.TotalAlloc, rss)
	res.Scale = ref.scale()
	res.Metrics = map[string]value{}
	for name, v := range res.RawMetrics {
		res.Metrics[name] = atNominal(v, res.Scale)
	}

	if cfg.trace {
		cache, err := inst.probeCache()
		if err != nil {
			return nil, err
		}
		if err := probe(cache, samples, filepath.Join(root, "probe")); err != nil {
			return nil, fmt.Errorf("%s: probe: %w", wl.name, err)
		}
		traceLayers(res, float64(log1-log0), after.NumGC-before.NumGC)
	}
	return res, nil
}

// runPhase issues ops from inst.clients() goroutines, each starting its
// next op only when the previous one is done, until both cfg.seconds have
// passed and cfg.minOps ops have started. Every refEvery it holds the
// clients back between ops and takes a reference sample. It returns the
// samples, the phase's length less those pauses, the peak RSS in MiB after
// rssAtOps ops (or at the end, when fewer ran) and the first reference
// sample that failed.
func runPhase(ctx context.Context, inst instance, cfg runConfig, ref *reference) (samples []opSample, active time.Duration, rss float64, err error) {
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var started, completed atomic.Int64
	n := inst.clients()
	perClient := make([][]opSample, n)
	// Ops hold gate for reading; a reference sample holds it for writing,
	// so it runs alone.
	var gate sync.RWMutex
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	paused0 := ref.Paused
	begin := time.Now()
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				gate.Lock()
				err = ref.sample()
				gate.Unlock()
				if err != nil {
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 1; ctx.Err() == nil; j++ {
				gate.RLock()
				el := time.Since(begin)
				id := int(started.Add(1)) - 1
				if el >= phaseCap || (el >= dur && id >= cfg.minOps) {
					gate.RUnlock()
					return
				}
				sp := -1
				if cfg.trace {
					sp = tr.add(span{Name: "op", Op: id, Parent: -1})
				}
				s := inst.op(ctx, id, sp, c, j)
				if cfg.trace {
					tr.set(sp, tr.at(s.start), tr.at(s.end))
				}
				s.StartMs = s.start.Sub(begin).Seconds() * 1e3
				s.LatencyMs = s.end.Sub(s.start).Seconds() * 1e3
				perClient[c] = append(perClient[c], s)
				if completed.Add(1) == rssAtOps {
					rss = peakRSSMB()
				}
				gate.RUnlock()
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	active = time.Since(begin) - (ref.Paused - paused0)
	if rss == 0 {
		rss = peakRSSMB()
	}
	for _, s := range perClient {
		samples = append(samples, s...)
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a].ID < samples[b].ID })
	return samples, active, rss, err
}

func endToEndMetrics(res *result, allocBytes uint64, rss float64) map[string]value {
	n := len(res.samples)
	lat := make([]float64, 0, n)
	var trials, records int
	for _, s := range res.samples {
		lat = append(lat, s.LatencyMs)
		trials += s.Trials
		records += s.Records
	}
	sort.Float64s(lat)
	secs := res.PhaseSeconds
	p90, beyond := percentile(lat, 0.9)
	m := map[string]value{
		"setup_s":         {Value: stats.Median(res.SetupSeconds), Unit: "s", N: len(res.SetupSeconds)},
		"ops_per_s":       {Value: float64(n) / secs, Unit: "1/s", N: n},
		"op_ms_p50":       {Value: stats.Median(lat), Unit: "ms", N: n},
		"op_ms_p90":       {Value: p90, Unit: "ms", N: n, Beyond: beyond},
		"trials_per_s":    {Value: float64(trials) / secs, Unit: "1/s", N: n},
		"records_per_s":   {Value: float64(records) / secs, Unit: "1/s", N: n},
		"alloc_mb_per_op": {Value: float64(allocBytes) / float64(max(n, 1)) / (1 << 20), Unit: "MiB", N: n},
		"peak_rss_mb":     {Value: rss, Unit: "MiB"},
		"failed_frac":     {Value: float64(res.Failed) / float64(max(n, 1)), Unit: "share", N: n},
	}
	return m
}

// probe re-times, after the phase and outside every op's timer, the public
// calls a sample of ops made: parsing and planning the spec, reading each
// campaign's cache entry (store Get, then Cache.Load's Get and decode),
// appending each missed entry to a scratch store, replaying each entry into
// CSV and JSONL file sinks, and for an adaptive campaign re-deriving its
// rounds with adapt.Run over the cached round records.
func probe(cache *suite.Cache, samples []opSample, dir string) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	scratch, err := store.Open(filepath.Join(dir, "scratch.log"), store.Options{})
	if err != nil {
		return err
	}
	defer scratch.Close()
	var eligible []opSample
	for _, s := range samples {
		if s.Err == "" && !s.Duplicate {
			eligible = append(eligible, s)
		}
	}
	step := max(1, int(math.Ceil(float64(len(eligible))/maxProbes)))
	for i := 0; i < len(eligible); i += step {
		if err := probeOp(cache, scratch, eligible[i], dir); err != nil {
			return fmt.Errorf("op %d: %w", eligible[i].ID, err)
		}
	}
	return nil
}

func probeOp(cache *suite.Cache, scratch *store.Store, s opSample, dir string) error {
	root := tr.add(span{Name: "probe", Op: s.ID, Parent: -1, Start: tr.now()})
	defer func() { tr.end(root) }()
	timed := func(name string, n int, f func() error) error {
		start := tr.now()
		err := f()
		tr.add(span{Name: name, Op: s.ID, Parent: root, Start: start, End: tr.now(), N: n})
		return err
	}

	var plans []suite.Plan
	if err := timed("suite.plan", 0, func() error {
		spec, err := suite.Parse(s.spec, "probe.json")
		if err == nil {
			plans, err = suite.BuildPlans(spec)
		}
		return err
	}); err != nil {
		return err
	}
	for c, co := range s.camps {
		for _, key := range co.keys {
			var payload []byte
			if err := timed("store.get", 0, func() (err error) {
				payload, err = cache.Backing().Get(key)
				return err
			}); err != nil {
				return err
			}
			var entry *suite.Entry
			if err := timed("suite.load", 0, func() (err error) {
				entry, err = cache.Load(key)
				return err
			}); err != nil {
				return err
			}
			if !co.hit {
				meta, _ := cache.Backing().Stat(key)
				if err := timed("store.put", 0, func() error {
					return scratch.Put(key, payload, meta)
				}); err != nil {
					return err
				}
			}
			if err := timed("runner.sink", len(entry.Records), func() error {
				return replayToFiles(entry, filepath.Join(dir, "replay.csv"), filepath.Join(dir, "replay.jsonl"))
			}); err != nil {
				return err
			}
		}
		if co.adaptive && c < len(plans) {
			if err := probeAdapt(cache, plans[c], co.keys, s.ID, root); err != nil {
				return err
			}
		}
	}
	return nil
}

func replayToFiles(entry *suite.Entry, csv, jsonl string) error {
	sinks, closers, err := runner.FileSinks(io.Discard, csv, jsonl)
	if err != nil {
		return err
	}
	err = entry.Replay(sinks...)
	for _, c := range closers {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// probeAdapt re-runs the adaptive planner over the campaign's cached round
// records. The "adapt.run" span's self time — the span minus its
// "adapt.exec" children, which load each round's records — is the
// planner's own cost.
func probeAdapt(cache *suite.Cache, p suite.Plan, keys []string, op, parent int) error {
	if p.Adaptive == nil {
		return nil
	}
	run := tr.add(span{Name: "adapt.run", Op: op, Parent: parent, Start: tr.now()})
	exec := func(round int, d *doe.Design) ([]core.RawRecord, error) {
		start := tr.now()
		defer func() { tr.add(span{Name: "adapt.exec", Op: op, Parent: run, Start: start, End: tr.now()}) }()
		if round < 1 || round > len(keys) {
			return nil, fmt.Errorf("round %d has no cached entry", round)
		}
		entry, err := cache.Load(keys[round-1])
		if err != nil {
			return nil, err
		}
		var mem runner.MemorySink
		if err := entry.Replay(&mem); err != nil {
			return nil, err
		}
		return mem.Records, nil
	}
	_, err := adapt.Run(*p.Adaptive, p.Refiner, p.Design, exec)
	tr.end(run)
	return err
}
