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
// heap allocations. AllocsPerRun catches regressions even when the CI
// benchmark job is skipped.
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
}
