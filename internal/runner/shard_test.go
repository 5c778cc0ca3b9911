package runner

import (
	"bytes"
	"context"
	"io"
	"math"
	"strconv"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/meta"
)

// ownerEngine records, for every trial it runs, which engine instance ran
// it. Instances are numbered in creation order, which is the worker order:
// Run builds worker w's engine w-th.
type ownerEngine struct {
	id    int
	owner []int // by Seq, shared by every instance; each index written once
}

func (e *ownerEngine) Execute(t doe.Trial) (core.RawRecord, error) {
	e.owner[t.Seq] = e.id
	return core.RawRecord{Value: float64(t.Seq)}, nil
}

func (e *ownerEngine) Environment() *meta.Environment { return meta.New() }

// TestShardedBlockCyclicAssignment pins the sharded schedule's layout:
// worker w runs blocks w, w+W, w+2W, ... of b consecutive trials, with b a
// pure function of the design size and the worker count. The layout must
// stay static — a dynamic claim lets one worker run every trial, and then
// a history-dependent engine passes the parallel-determinism check — and
// small campaigns keep the plain stride (b = 1).
func TestShardedBlockCyclicAssignment(t *testing.T) {
	for _, c := range []struct{ n, workers, wantWorkers, b int }{
		{24, 2, 2, 1},       // mem-cold: the plain stride
		{31, 2, 2, 1},       // just below 16 trials per worker
		{32, 2, 2, 2},       // 16 trials per worker: blocks of two
		{100, 3, 3, 4},      // a ragged last block
		{200, 2, 2, 12},     // a light campaign
		{1000, 4, 4, 31},    // blocks do not divide the design
		{10000, 2, 2, 64},   // capped at 64
		{5, 8, 5, 1},        // more workers than trials: clamped
		{4096, 8, 8, 64},    // exactly 8 blocks per worker
		{4095, 8, 8, 63},    // one trial fewer
		{513, 4, 4, 16},     // one trial over 16 per block
		{65, 1 << 3, 8, 1},  // 8 workers, 65 trials
		{777, 3, 3, 32},     // odd sizes
		{64 * 64, 1, 1, 64}, // one worker runs inline; no blocks
	} {
		d := stubDesign(t, c.n)
		owner := make([]int, c.n)
		id := 0
		factory := core.EngineFactoryFunc(func() (core.Engine, error) {
			id++
			return &ownerEngine{id: id - 1, owner: owner}, nil
		})
		if _, err := Run(context.Background(), d, factory, Config{Workers: c.workers}); err != nil {
			t.Fatal(err)
		}
		if id != c.wantWorkers {
			t.Fatalf("n=%d W=%d: %d engines built, want %d", c.n, c.workers, id, c.wantWorkers)
		}
		if c.wantWorkers == 1 {
			continue
		}
		if got := blockSize(c.n, c.wantWorkers); got != c.b {
			t.Fatalf("n=%d W=%d: block size %d, want %d", c.n, c.wantWorkers, got, c.b)
		}
		ran := make([]int, c.wantWorkers)
		for seq, w := range owner {
			if want := seq / c.b % c.wantWorkers; w != want {
				t.Fatalf("n=%d W=%d b=%d: trial %d ran on worker %d, want %d", c.n, c.wantWorkers, c.b, seq, w, want)
			}
			ran[w]++
		}
		for w, k := range ran {
			if k == 0 || k == c.n {
				t.Fatalf("n=%d W=%d: worker %d ran %d of %d trials", c.n, c.wantWorkers, w, k, c.n)
			}
		}
	}
	for workers := 2; workers <= 64; workers++ {
		for n := 1; n < 16*workers; n++ {
			if b := blockSize(n, workers); b != 1 {
				t.Fatalf("n=%d W=%d: block size %d, want the plain stride", n, workers, b)
			}
		}
		if b := blockSize(16*workers, workers); b != 2 {
			t.Fatalf("n=%d W=%d: block size %d, want 2", 16*workers, workers, b)
		}
	}
}

// mixedEngine emits records that the worker-side encoders cannot always
// vouch for: extra "b" only on even trials (the first record has it, so
// odd trials serialize an empty cell, and a worker whose first trial is
// odd derives a narrower column set than the sink's), an unknown extra
// at trial lateAt and a NaN value at trial nanAt (-1 for never).
type mixedEngine struct{ lateAt, nanAt int }

func (e mixedEngine) Execute(t doe.Trial) (core.RawRecord, error) {
	rec := core.RawRecord{Value: float64(t.Seq) / 3, Seconds: 1, At: float64(t.Seq)}
	rec.Annotate("a", strconv.Itoa(t.Seq))
	if t.Seq%2 == 0 {
		rec.Annotate("b", "<even>")
	}
	if t.Seq == e.lateAt {
		rec.Annotate("late", "x")
	}
	if t.Seq == e.nanAt {
		rec.Value = math.NaN()
	}
	return rec, nil
}

func (mixedEngine) Environment() *meta.Environment { return meta.New() }

// TestShardedOutputMatchesInline: whatever the workers could pre-encode,
// the sharded run's CSV and JSONL bytes, its error and the position of
// every validation rejection and latch are the one-worker run's.
func TestShardedOutputMatchesInline(t *testing.T) {
	d := stubDesign(t, 300)
	for _, eng := range []mixedEngine{
		{lateAt: -1, nanAt: -1},  // columns vary by worker; the run succeeds
		{lateAt: 137, nanAt: -1}, // the CSV sink rejects trial 137
		{lateAt: -1, nanAt: 201}, // the JSONL sink latches at trial 201
		{lateAt: 250, nanAt: 90}, // both, the latch first
		{lateAt: 0, nanAt: -1},   // the first record fixes the header; its extra is not "late"
	} {
		factory := core.EngineFactoryFunc(func() (core.Engine, error) { return eng, nil })
		var refCSV, refJSONL []byte
		var refErr string
		for _, workers := range []int{1, 2, 4, 8} {
			var csv, jsonl bytes.Buffer
			_, err := Run(context.Background(), d, factory, Config{Workers: workers,
				Sinks: []RecordSink{NewCSVSink(&csv), NewJSONLSink(&jsonl)}})
			msg := ""
			if err != nil {
				msg = err.Error()
			}
			if workers == 1 {
				refCSV, refJSONL, refErr = csv.Bytes(), jsonl.Bytes(), msg
				continue
			}
			if msg != refErr {
				t.Fatalf("%+v workers=%d: error %q, one worker %q", eng, workers, msg, refErr)
			}
			if !bytes.Equal(csv.Bytes(), refCSV) || !bytes.Equal(jsonl.Bytes(), refJSONL) {
				t.Fatalf("%+v workers=%d: output differs from one worker's (CSV %d vs %d bytes, JSONL %d vs %d)",
					eng, workers, csv.Len(), len(refCSV), jsonl.Len(), len(refJSONL))
			}
		}
		if (eng.lateAt > 0 || eng.nanAt >= 0) == (refErr == "") {
			t.Fatalf("%+v: error %q", eng, refErr)
		}
	}
}

// cancelAtEngine cancels the campaign while running trial at, then
// finishes that trial normally.
type cancelAtEngine struct {
	cancel context.CancelFunc
	at     int
}

func (e cancelAtEngine) Execute(t doe.Trial) (core.RawRecord, error) {
	if t.Seq == e.at {
		e.cancel()
	}
	return core.RawRecord{Value: float64(t.Seq), Seconds: 1, At: float64(t.Seq)}, nil
}

func (cancelAtEngine) Environment() *meta.Environment { return meta.New() }

// TestCanceledBlockHandsOverItsPrefix: a block that cancellation cuts short
// still reaches the collector, so the records finished before the cut are
// in the output — exactly trials 0-5 when worker 0 cancels the run during
// trial 5 of its first block (200 trials, two workers, blocks of 12).
func TestCanceledBlockHandsOverItsPrefix(t *testing.T) {
	d := stubDesign(t, 200)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	factory := core.EngineFactoryFunc(func() (core.Engine, error) { return cancelAtEngine{cancel: cancel, at: 5}, nil })
	var csv, jsonl bytes.Buffer
	_, err := Run(ctx, d, factory, Config{Workers: 2, Sinks: []RecordSink{NewCSVSink(&csv), NewJSONLSink(&jsonl)}})
	if err == nil {
		t.Fatal("canceled run reported success")
	}
	parsed, err := core.ReadCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != 6 || bytes.Count(jsonl.Bytes(), []byte{'\n'}) != 6 {
		t.Fatalf("flushed %d CSV rows and %d JSONL lines, want trials 0-5", parsed.Len(), bytes.Count(jsonl.Bytes(), []byte{'\n'}))
	}
	for i, rec := range parsed.Records {
		if rec.Seq != i {
			t.Fatalf("row %d has seq %d", i, rec.Seq)
		}
	}
}

// TestFreshBlockGrowsOnce: a block from an empty free list sizes its
// buffer from its first record instead of growing its way up to the
// block's bytes step by step, so a fresh block's buffer is reallocated
// once, after its first record, and never again.
func TestFreshBlockGrowsOnce(t *testing.T) {
	rec := benchRecord()
	encs := []recordEncoder{NewCSVSink(io.Discard).newEncoder(), NewJSONLSink(io.Discard).newEncoder()}
	blk := (&blockPool{}).get(0, 64, encs)
	blk.add(rec)
	per, grown := len(blk.buf), cap(blk.buf)
	if grown < 64*per {
		t.Fatalf("after the first record the buffer holds %d bytes, want room for 64 records of %d", grown, per)
	}
	for range 63 {
		blk.add(rec)
		if cap(blk.buf) != grown {
			t.Fatalf("the buffer grew again at record %d (%d -> %d bytes)", blk.hi-blk.lo, grown, cap(blk.buf))
		}
	}
}
