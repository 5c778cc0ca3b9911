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
	"slices"
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
	// Progress, when non-nil, is called once per completed trial, from a
	// single goroutine, with the number of completed trials and the design
	// size. One worker reports each trial as it finishes. More workers run
	// blocks of consecutive trials (see runSharded), and a block's calls
	// arrive together when the collector receives the block, so progress
	// advances at block granularity, in block completion order.
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
//
// The design is cut into blocks of blockSize consecutive trials, and worker
// w runs blocks w, w+W, w+2W, ... A worker stores each record at its design
// position and encodes it for every sink that can encode off the collector
// (see blockSink), then hands the finished block over in one message; the
// channel send/receive pair orders the record and byte writes before the
// collector's reads. The collector writes blocks in design order, so per
// trial it only copies bytes.
//
// The assignment is static on purpose. Trial-indexed engines make it
// immaterial for the records, but a history-dependent engine is not, and a
// dynamic queue would let one fast worker take every trial, so the sharded
// output would match the serial one by accident and the engine contract's
// parallel-determinism check could not catch the engine.
func runSharded(ctx context.Context, design *doe.Design, engines []core.Engine, cfg Config, records []core.RawRecord) (int, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	n, workers := len(records), len(engines)
	size := blockSize(n, workers)
	// One slot per worker: a worker that finishes a block while the
	// collector is busy writing moves on to its next block.
	finished := make(chan *block, workers)
	pool := &blockPool{}
	var wg sync.WaitGroup
	for w, eng := range engines {
		encs := make([]recordEncoder, len(cfg.Sinks))
		for i, s := range cfg.Sinks {
			if bs, ok := s.(blockSink); ok {
				encs[i] = bs.newEncoder()
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := w * size; lo < n; lo += workers * size {
				end := min(lo+size, n)
				blk := pool.get(lo, end-lo, encs)
				for i := lo; i < end && ctx.Err() == nil; i++ {
					rec, err := execute(eng, design.Trials[i])
					if err != nil {
						cancel(err)
						break
					}
					records[i] = rec
					blk.add(rec)
				}
				// A plain send, even of a block cut short: the collector
				// drains finished until it closes, so a record finished as
				// the run is canceled still reaches the ordered prefix
				// instead of being dropped. Once sent, the block is the
				// collector's.
				hi := blk.hi
				if hi > lo {
					finished <- blk
				}
				if hi < end {
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(finished)
	}()

	// Collect: records already sit at their design position; the progress
	// callback sees every trial of a block as it arrives, and the sinks see
	// the ordered prefix extend block by block. A block cut short ends the
	// prefix, since the trials after it never ran: it leaves next inside
	// its own slot, which stays empty.
	pending := make([]*block, (n+size-1)/size)
	next, done := 0, 0
	var sinkErr error
	for blk := range finished {
		for range blk.hi - blk.lo {
			done++
			if cfg.Progress != nil {
				cfg.Progress(done, n)
			}
		}
		pending[blk.lo/size] = blk
		for sinkErr == nil && next < n {
			head := pending[next/size]
			if head == nil {
				break
			}
			pending[next/size] = nil
			next, sinkErr = head.write(cfg.Sinks, records)
			pool.put(head)
			if sinkErr != nil {
				cancel(fmt.Errorf("runner: sink: %w", sinkErr))
			}
		}
	}
	return next, context.Cause(ctx)
}

// blockSize is the number of consecutive trials in one block of the sharded
// schedule, a pure function of the design size and the worker count: about
// eight blocks per worker, so the blocks still balance the load, of at most
// 64 trials, so the collector's reorder window stays small. Below 16 trials
// per worker it is 1, and the schedule is a plain stride — the layout that
// slow campaigns, whose per-trial handoff costs nothing beside the trial,
// have always had.
func blockSize(n, workers int) int {
	return max(1, min(64, n/(8*workers)))
}

// block is one worker's run of consecutive trials [lo, hi) in flight to the
// collector, with the bytes its encoders wrote for them: for each record in
// order, one span of buf per encoder, delimited by ends. An empty span
// marks a record its encoder could not encode exactly.
type block struct {
	lo, hi int
	trials int             // the trials the block is to hold
	encs   []recordEncoder // the worker's encoders, one per sink; nil for a sink that encodes on the collector
	buf    []byte
	ends   []int
}

// add appends one finished record, the next of the block, and its
// encodings. The first record's size sizes buf for the whole block, with a
// quarter to spare, so a fresh block grows once instead of doubling its
// way up.
func (b *block) add(rec core.RawRecord) {
	for _, enc := range b.encs {
		if enc != nil {
			b.buf = enc.encode(b.buf, rec)
			b.ends = append(b.ends, len(b.buf))
		}
	}
	if b.hi == b.lo {
		b.buf = slices.Grow(b.buf, len(b.buf)*(b.trials-1)*5/4)
	}
	b.hi++
}

// write hands the block's records to the sinks in design order — record by
// record, each to every sink in turn, as writeSinks would — using the
// pre-encoded bytes where there are any. It returns the end of the prefix
// the sinks received in full: hi, or the position of the record a sink
// refused.
func (b *block) write(sinks []RecordSink, records []core.RawRecord) (int, error) {
	start, span := 0, 0
	for i := b.lo; i < b.hi; i++ {
		for j, s := range sinks {
			var err error
			if enc := b.encs[j]; enc != nil {
				end := b.ends[span]
				err = enc.write(records[i], b.buf[start:end])
				start, span = end, span+1
			} else {
				err = s.Write(records[i])
			}
			if err != nil {
				return i, err
			}
		}
	}
	return b.hi, nil
}

// blockPool is a run's free list of blocks: workers take one per block,
// and the collector returns it once written. It lives as long as the run,
// so after the first few blocks every block reuses grown buffers and the
// per-record path allocates nothing. (A sync.Pool would not do: every GC
// empties it.)
type blockPool struct {
	mu   sync.Mutex
	free []*block
}

// get returns an empty block for the trials [lo, lo+trials) of a worker
// with encoders encs.
func (p *blockPool) get(lo, trials int, encs []recordEncoder) *block {
	p.mu.Lock()
	var b *block
	if k := len(p.free); k > 0 {
		b, p.free = p.free[k-1], p.free[:k-1]
	}
	p.mu.Unlock()
	if b == nil {
		// Room for a first record of a typical size; add then sizes the
		// buffer for the whole block.
		b = &block{buf: make([]byte, 0, 512)}
	}
	b.lo, b.hi, b.trials, b.encs = lo, lo, trials, encs
	b.buf, b.ends = b.buf[:0], slices.Grow(b.ends[:0], trials*len(encs))
	return b
}

// put returns a written block to the free list.
func (p *blockPool) put(b *block) {
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
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
