// Package runner executes a campaign's design in parallel without giving up
// the methodology's guarantees: the design still dictates the schedule, every
// raw record is still logged un-aggregated, and the output is record-for-
// record identical to a serial core.Campaign.Run of the same design.
//
// The construction relies on trial-indexed engines (see core.EngineFactory):
// every stochastic and temporal quantity of a trial derives from the
// campaign seed and the trial's Seq, never from which trials ran before it.
// Under that property execution order is immaterial, so trials can be
// sharded across workers — each worker driving its own engine instance,
// because simulator engines carry per-campaign substrate state — and the
// records reassembled into design order afterwards. Satellite consumers see
// the campaign stream through RecordSink in design order as a growing
// prefix, so results can be persisted incrementally instead of buffered
// whole.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
)

// Config tunes a parallel campaign run.
type Config struct {
	// Workers is the number of concurrent engine instances. Values < 1
	// mean runtime.GOMAXPROCS(0). One worker degenerates to a serial run.
	Workers int
	// Sinks receive every record, in design order, as soon as the ordered
	// prefix of the campaign extends over it. Sinks are driven from a
	// single goroutine; they need not be safe for concurrent use.
	Sinks []RecordSink
	// Progress, when non-nil, is called after each trial completes (in
	// completion order, from a single goroutine) with the number of
	// completed trials and the design size.
	//
	// The callback runs on the collector goroutine while it holds the
	// campaign's ordering state: until it returns, no further record
	// reaches the sinks, and once the workers' completion channel fills the
	// workers stall too. Callbacks must therefore never block — bridge to a
	// slow or absent consumer through ProgressChan, whose Send drops the
	// oldest buffered update instead of waiting.
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

	res := core.NewResults(design, engines[0])
	res.Env.Setf("runner/workers", "%d", workers)
	if n == 0 {
		return res, flushSinks(cfg.Sinks)
	}

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	// The reorder storage is preallocated once and written in place:
	// workers own disjoint stride classes of the design, so each worker
	// stores its finished records directly at their design position and
	// only the trial's seq crosses the channel. The channel send/receive
	// pair orders the record write before the collector's read.
	records := make([]core.RawRecord, n)
	doneSeqs := make(chan int, workers)
	var wg sync.WaitGroup
	// Workers shard the design by striding: worker w runs trials w, w+W,
	// w+2W, ... Trial-indexed engines make the assignment immaterial for
	// the records; striding keeps workers in rough lockstep so the
	// collector's reorder window stays small.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, eng core.Engine) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if ctx.Err() != nil {
					return
				}
				t := design.Trials[i]
				rec, err := eng.Execute(t)
				if err != nil {
					cancel(fmt.Errorf("runner: trial %d (%s): %w", t.Seq, t.Point.Key(), err))
					return
				}
				rec.Seq = t.Seq
				rec.Rep = t.Rep
				if rec.Point == nil {
					rec.Point = t.Point
				}
				records[i] = rec
				// A plain send: the collector drains doneSeqs until it
				// closes, so a record finished as the run is canceled still
				// reaches the ordered prefix instead of being dropped.
				doneSeqs <- i
			}
		}(w, engines[w])
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

	if err := context.Cause(ctx); err != nil {
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
