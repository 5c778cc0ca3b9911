package runner

import (
	"io"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
)

// benchRecord is a representative hot-path record: a two-factor point plus
// the extras the simulator engines attach to every trial.
func benchRecord() core.RawRecord {
	return core.RawRecord{
		Seq:     42,
		Rep:     3,
		Value:   1234.5678,
		Seconds: 0.00123,
		At:      9.875,
		Point: doe.Point{
			"size_bytes": "65536",
			"stride":     "4",
		},
		Extra: map[string]string{
			"bound_by": "L2",
			"slowdown": "1.0312",
		},
	}
}

// BenchmarkCSVSinkEncodeRecord measures the per-record cost of the CSV
// streaming sink. After the first record fixes the header and warms the
// scratch buffers, the encode path must be allocation-free; tier-1
// asserts that with testing.AllocsPerRun in TestSinkEncodeAllocationFree.
func BenchmarkCSVSinkEncodeRecord(b *testing.B) {
	s := NewCSVSink(io.Discard)
	rec := benchRecord()
	if err := s.Write(rec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJSONLSinkEncodeRecord measures the per-record cost of the JSONL
// streaming sink; same allocation budget as the CSV sink.
func BenchmarkJSONLSinkEncodeRecord(b *testing.B) {
	s := NewJSONLSink(io.Discard)
	rec := benchRecord()
	if err := s.Write(rec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSinkEncodeAllocationFree pins the tentpole invariant directly: once a
// sink's header and scratch buffers are warm, writing a record performs no
// heap allocations — through the sink's own Write, and on the sharded
// runner's path, where a worker encodes a block of records into a block
// from the run's free list and the collector writes the block to the
// sinks. AllocsPerRun catches regressions even when the CI benchmark job
// is skipped.
func TestSinkEncodeAllocationFree(t *testing.T) {
	rec := benchRecord()
	sinks := map[string]RecordSink{
		"csv":   NewCSVSink(io.Discard),
		"jsonl": NewJSONLSink(io.Discard),
	}
	for name, s := range sinks {
		if err := s.Write(rec); err != nil {
			t.Fatalf("%s: warmup write: %v", name, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := s.Write(rec); err != nil {
				t.Fatalf("%s: write: %v", name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s sink: %v allocs per record, want 0", name, allocs)
		}
	}

	// The block path: two encoding sinks beside one that takes records on
	// the collector, a block of 64 records, two workers' encoders taking
	// turns as in a sharded run.
	blockSinks := []RecordSink{NewCSVSink(io.Discard), NewJSONLSink(io.Discard), &countSink{}}
	workerEncs := make([][]recordEncoder, 2)
	for w := range workerEncs {
		workerEncs[w] = make([]recordEncoder, len(blockSinks))
		for i, s := range blockSinks {
			if bs, ok := s.(blockSink); ok {
				workerEncs[w][i] = bs.newEncoder()
			}
		}
	}
	records := make([]core.RawRecord, 64)
	for i := range records {
		records[i] = rec
	}
	pool := &blockPool{}
	runBlock := func(w int) {
		blk := pool.get(0, len(records), workerEncs[w])
		for _, r := range records {
			blk.add(r)
		}
		if next, err := blk.write(blockSinks, records); err != nil || next != len(records) {
			t.Fatalf("block write: %d records, %v", next, err)
		}
		pool.put(blk)
	}
	runBlock(0)
	runBlock(1)
	allocs := testing.AllocsPerRun(100, func() {
		runBlock(0)
		runBlock(1)
	})
	if allocs != 0 {
		t.Errorf("block path: %v allocs per two blocks, want 0", allocs)
	}
}

// countSink is a RecordSink without a worker-side encoder.
type countSink struct{ n int }

func (s *countSink) Write(core.RawRecord) error { s.n++; return nil }
func (s *countSink) Flush() error               { return nil }
