// Package runner is the methodology's one executor (stage 2): it runs a
// campaign's trials in exactly the designed order, logs every raw record
// un-aggregated, and returns them in design order with the captured
// environment.
//
// One worker runs the trials inline on the calling goroutine; Sequential
// runs a caller-owned, history-dependent engine that way. More workers
// shard the design, which relies on trial-indexed engines (see
// core.EngineFactory): a trial's record derives from the campaign seed and
// its Seq alone, so each worker drives its own engine instance and the
// records, reassembled into design order, are identical to the one-worker
// run. Both schedules hand the records to RecordSink in design order as a
// growing prefix, so results persist incrementally instead of buffered
// whole.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/meta"
)

// Config tunes a campaign run.
type Config struct {
	// Workers is the number of concurrent engine instances. Values < 1
	// mean runtime.GOMAXPROCS(0). One worker runs the trials inline on the
	// calling goroutine.
	Workers int
	// Sinks receive every record, in design order, as soon as the ordered
	// prefix of the campaign extends over it. Sinks are driven from a
	// single goroutine; they need not be safe for concurrent use.
	Sinks []RecordSink
	// Progress, when non-nil, is called after each trial completes (in
	// completion order, from a single goroutine) with the number of
	// completed trials and the design size.
	//
	// The callback runs while the campaign's ordering state is held: until
	// it returns, no further record reaches the sinks, and once the
	// sharded workers' completion channel fills the workers stall too.
	// Callbacks must therefore never block — bridge to a slow or absent
	// consumer through ProgressChan, whose Send drops the oldest buffered
	// update instead of waiting.
	Progress func(done, total int)
}

// Run executes every trial of the design across cfg.Workers workers, each
// with its own engine from the factory, and returns the full raw results in
// design order. The first trial error cancels the remaining work and is
// returned; a canceled ctx aborts the run with the cancellation cause.
func Run(ctx context.Context, design *doe.Design, factory core.EngineFactory, cfg Config) (*core.Results, error) {
	if design == nil || factory == nil {
		return nil, fmt.Errorf("runner: campaign needs both a design and an engine factory")
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := design.Size()
	if workers > n && n > 0 {
		workers = n
	}

	// Engines are created up front, serially: factories need not be safe
	// for concurrent use, and a configuration error surfaces before any
	// trial runs.
	engines := make([]core.Engine, workers)
	for i := range engines {
		e, err := factory.NewEngine()
		if err != nil {
			return nil, fmt.Errorf("runner: worker %d engine: %w", i, err)
		}
		engines[i] = e
	}
	return run(ctx, design, engines, cfg)
}

// Sequential executes the design on one caller-owned engine, at exactly one
// worker, and returns the full raw results in design order. It is the entry
// point for history-dependent engines, whose state must carry from trial to
// trial and, when the caller runs several campaigns on one engine, from
// campaign to campaign. Taking no worker count, it cannot share the engine
// across goroutines by mistake.
func Sequential(ctx context.Context, design *doe.Design, eng core.Engine) (*core.Results, error) {
	if design == nil || eng == nil {
		return nil, fmt.Errorf("runner: campaign needs both a design and an engine")
	}
	return run(ctx, design, []core.Engine{eng}, Config{})
}

// run executes the design on the given engines — inline for one, sharded
// for more — and applies the rules both schedules share: the environment,
// the prefix flush on failure and the final flush.
func run(ctx context.Context, design *doe.Design, engines []core.Engine, cfg Config) (*core.Results, error) {
	res := newResults(design, engines[0])
	res.Env.Setf("runner/workers", "%d", len(engines))
	n := design.Size()
	if n == 0 {
		return res, flushSinks(cfg.Sinks)
	}

	// The records are preallocated once and written in place at their
	// design position.
	records := make([]core.RawRecord, n)
	schedule := runSharded
	if len(engines) == 1 {
		schedule = runInline
	}
	next, err := schedule(ctx, design, engines, cfg, records)
	if err != nil {
		// Best-effort flush so the completed ordered prefix already handed
		// to the sinks survives the failure — the streaming sinks'
		// crash-durability promise. The run error stays primary. With no
		// record handed over there is nothing to keep, and a flush would
		// only make a CSV sink emit its bare fixed-column header, which is
		// not a prefix of any real run.
		if next > 0 {
			flushSinks(cfg.Sinks)
		}
		return nil, err
	}
	res.Records = records
	return res, flushSinks(cfg.Sinks)
}

// newResults builds an empty result set for a campaign: the environment is
// captured from the engine and stamped with the design metadata.
func newResults(design *doe.Design, engine core.Engine) *core.Results {
	res := &core.Results{Design: design, Env: engine.Environment()}
	if res.Env == nil {
		res.Env = meta.New()
	}
	res.Env.Setf("design/trials", "%d", design.Size())
	res.Env.Setf("design/seed", "%d", design.Seed)
	res.Env.Setf("design/randomized", "%v", design.Randomized)
	return res
}

// execute is the one per-trial step: it runs the trial and stamps the
// record with the trial's identity — its Seq and Rep, and its point unless
// the engine set one.
func execute(eng core.Engine, t doe.Trial) (core.RawRecord, error) {
	rec, err := eng.Execute(t)
	if err != nil {
		return core.RawRecord{}, fmt.Errorf("runner: trial %d (%s): %w", t.Seq, t.Point.Key(), err)
	}
	rec.Seq = t.Seq
	rec.Rep = t.Rep
	if rec.Point == nil {
		rec.Point = t.Point
	}
	return rec, nil
}

// runInline is the one-worker schedule: every trial in design order on the
// calling goroutine with the one engine, each record handed to the sinks as
// soon as it exists. It returns the number of records the sinks received
// in full.
func runInline(ctx context.Context, design *doe.Design, engines []core.Engine, cfg Config, records []core.RawRecord) (int, error) {
	n, eng := len(records), engines[0]
	for i, t := range design.Trials {
		if ctx.Err() != nil {
			return i, context.Cause(ctx)
		}
		rec, err := execute(eng, t)
		if err != nil {
			return i, err
		}
		records[i] = rec
		if cfg.Progress != nil {
			cfg.Progress(i+1, n)
		}
		if err := writeSinks(cfg.Sinks, rec); err != nil {
			return i, fmt.Errorf("runner: sink: %w", err)
		}
	}
	return n, context.Cause(ctx)
}

// runSharded is the multi-worker schedule: one goroutine per engine, the
// records reassembled into design order by a collector on the calling
// goroutine. It returns the number of records the sinks received in full.
func runSharded(ctx context.Context, design *doe.Design, engines []core.Engine, cfg Config, records []core.RawRecord) (int, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	// Workers own disjoint stride classes of the design, so each worker
	// stores its finished records directly at their design position and
	// only the trial's seq crosses the channel. The channel send/receive
	// pair orders the record write before the collector's read.
	n, workers := len(records), len(engines)
	doneSeqs := make(chan int, workers)
	var wg sync.WaitGroup
	// Workers shard the design by striding: worker w runs trials w, w+W,
	// w+2W, ... Trial-indexed engines make the assignment immaterial for
	// the records; striding keeps workers in rough lockstep so the
	// collector's reorder window stays small.
	for w, eng := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if ctx.Err() != nil {
					return
				}
				rec, err := execute(eng, design.Trials[i])
				if err != nil {
					cancel(err)
					return
				}
				records[i] = rec
				// A plain send: the collector drains doneSeqs until it
				// closes, so a record finished as the run is canceled still
				// reaches the ordered prefix instead of being dropped.
				doneSeqs <- i
			}
		}()
	}
	go func() {
		wg.Wait()
		close(doneSeqs)
	}()

	// Collect: records already sit at their design position; sinks and the
	// progress callback observe the ordered prefix as it extends.
	filled := make([]bool, n)
	next, done := 0, 0
	var sinkErr error
	for seq := range doneSeqs {
		filled[seq] = true
		done++
		if cfg.Progress != nil {
			cfg.Progress(done, n)
		}
		if sinkErr != nil {
			continue
		}
		for next < n && filled[next] {
			if err := writeSinks(cfg.Sinks, records[next]); err != nil {
				sinkErr = err
				cancel(fmt.Errorf("runner: sink: %w", err))
				break
			}
			next++
		}
	}
	return next, context.Cause(ctx)
}

func writeSinks(sinks []RecordSink, rec core.RawRecord) error {
	for _, s := range sinks {
		if err := s.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

func flushSinks(sinks []RecordSink) error {
	for _, s := range sinks {
		if err := s.Flush(); err != nil {
			return fmt.Errorf("runner: sink: %w", err)
		}
	}
	return nil
}
