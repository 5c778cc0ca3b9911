package collbench

import (
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/netbench"
)

// benchSink keeps BenchmarkCollectiveExecute's records live.
var benchSink core.RawRecord

// BenchmarkCollectiveExecute measures one collective trial of the
// light-cold design (a zero Spec: taurus, 8 ranks, bcast and allreduce over
// 100 log-uniform sizes, tree/ring switch at 16 KiB), cycling through the
// design's trials. After the engine's first trial a trial allocates
// nothing; TestCollectiveExecuteAllocationFree asserts that.
func BenchmarkCollectiveExecute(b *testing.B) {
	cfg, d, err := FromSpec(Spec{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewCollectiveEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchSink, err = e.Execute(d.Trials[i%len(d.Trials)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCollectiveExecuteAllocationFree pins the engine half of the
// allocation-free hot path: once an engine has run its first trial, a
// bcast, tree or ring allreduce, or barrier trial performs no heap
// allocations — the communicator, its message queues and the jitter and
// noise generators are all reused.
func TestCollectiveExecuteAllocationFree(t *testing.T) {
	cfg, _, err := FromSpec(Spec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewCollectiveEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trials := map[string]doe.Trial{
		"bcast":          {Seq: 3, Point: doe.Point{netbench.FactorSize: "4096", netbench.FactorOp: OpBcast}},
		"allreduce-tree": {Seq: 4, Point: doe.Point{netbench.FactorSize: "1000", netbench.FactorOp: OpAllreduce}},
		"allreduce-ring": {Seq: 5, Point: doe.Point{netbench.FactorSize: "200000", netbench.FactorOp: OpAllreduce}},
		"barrier":        {Seq: 6, Point: doe.Point{netbench.FactorSize: "64", netbench.FactorOp: OpBarrier}},
	}
	for name, tr := range trials {
		if _, err := e.Execute(tr); err != nil {
			t.Fatalf("%s: first trial: %v", name, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := e.Execute(tr); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s trial: %v allocs, want 0", name, allocs)
		}
	}
}
