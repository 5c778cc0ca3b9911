package collbench

import (
	"reflect"
	"runtime"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/netbench"
	"opaquebench/internal/netsim"
)

func TestFromSpecDefaults(t *testing.T) {
	cfg, design, err := FromSpec(Spec{}, 21)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Profile.Name != "taurus-openmpi-tcp-10g" || cfg.Ranks != 8 {
		t.Fatalf("defaults: profile=%q ranks=%d", cfg.Profile.Name, cfg.Ranks)
	}
	if cfg.AllreduceSwitchBytes != 16384 {
		t.Fatalf("default switchover = %d", cfg.AllreduceSwitchBytes)
	}
	// 100 sizes x 2 ops x 4 reps.
	if got := design.Size(); got != 100*2*4 {
		t.Fatalf("default design size = %d", got)
	}
}

func TestFromSpecSwitchDisabled(t *testing.T) {
	cfg, _, err := FromSpec(Spec{SwitchBytes: -1}, 21)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.AllreduceSwitchBytes != 0 {
		t.Fatalf("negative switch_bytes should disable the tree, got %d", cfg.AllreduceSwitchBytes)
	}
}

func TestFromSpecRejectsBadInputs(t *testing.T) {
	if _, _, err := FromSpec(Spec{Profile: "carrier-pigeon"}, 1); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, _, err := FromSpec(Spec{Ops: []string{"gather"}}, 1); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, _, err := FromSpec(Spec{Ranks: 1}, 1); err == nil {
		t.Fatal("single-rank communicator accepted")
	}
}

// TestFromSpecHugeRanksValidatesCheaply: the rank count comes from a
// submitted spec, and validating it must not allocate per rank — a server
// validates every submission. A count past maxRanks is refused, 1<<50
// included, whose per-rank buffers exceed the largest possible allocation;
// and validating maxRanks itself allocates far less than one 8-byte clock
// per rank.
func TestFromSpecHugeRanksValidatesCheaply(t *testing.T) {
	for _, ranks := range []int{maxRanks + 1, 1 << 50} {
		if _, _, err := FromSpec(Spec{Ranks: ranks, N: 2, Reps: 1}, 1); err == nil {
			t.Fatalf("FromSpec accepted %d ranks", ranks)
		}
		if _, err := NewCollectiveEngine(CollectiveConfig{Profile: netsim.Taurus(), Ranks: ranks}); err == nil {
			t.Fatalf("NewCollectiveEngine accepted %d ranks", ranks)
		}
	}
	validate := func(ranks int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cfg, _, err := FromSpec(Spec{Ranks: ranks, N: 2, Reps: 1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Ranks != ranks {
			t.Fatalf("ranks = %d, want %d", cfg.Ranks, ranks)
		}
		if _, err := CollectiveFactory(cfg).NewEngine(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, huge := validate(8), validate(maxRanks)
	if huge > small+maxRanks {
		t.Fatalf("validating %d ranks allocated %d bytes, against %d at 8 ranks", maxRanks, huge, small)
	}
}

// TestFactoryTrialIndexed ties the spec to the netbench machinery: engines
// built from the resolved config replay the design in reverse order
// byte-identically to a forward pass.
func TestFactoryTrialIndexed(t *testing.T) {
	cfg, design, err := FromSpec(Spec{N: 16, Reps: 2, Ops: []string{OpBcast, OpAllreduce, OpBarrier}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	factory := CollectiveFactory(cfg)
	fwd, err := factory.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	forward := make([]core.RawRecord, design.Size())
	for i, tr := range design.Trials {
		if forward[i], err = fwd.Execute(tr); err != nil {
			t.Fatal(err)
		}
	}
	rev, err := factory.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for i := design.Size() - 1; i >= 0; i-- {
		rec, err := rev.Execute(design.Trials[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec, forward[i]) {
			t.Fatalf("trial %d replayed differently:\n fwd %+v\n rev %+v", i, forward[i], rec)
		}
	}
}

func TestRefineContract(t *testing.T) {
	spec := Spec{Reps: 3}
	if spec.ZoomFactor() != netbench.FactorSize {
		t.Fatalf("zoom factor = %q", spec.ZoomFactor())
	}
	design, err := spec.Refine(99, []int{4096, 16384, 65536}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 3 sizes x 2 default ops x 2 reps.
	if got := design.Size(); got != 3*2*2 {
		t.Fatalf("refined design size = %d", got)
	}
	for _, tr := range design.Trials {
		if tr.Origin != doe.OriginZoom {
			t.Fatalf("trial not stamped OriginZoom: %+v", tr)
		}
	}
	if _, err := spec.Refine(99, nil, 2); err == nil {
		t.Fatal("empty refine levels accepted")
	}
	if _, err := spec.Refine(99, []int{-4}, 2); err == nil {
		t.Fatal("negative refine level accepted")
	}
	if _, err := (Spec{Ops: []string{"gather"}}).Refine(99, []int{64}, 2); err == nil {
		t.Fatal("unknown op accepted in refine")
	}
}

// TestSwitchoverVisibleInDuration plants the breakpoint the adaptive
// fixture localizes: with the tree/ring switchover enabled, allreduce
// duration jumps between the sizes bracketing switch_bytes.
func TestSwitchoverVisibleInDuration(t *testing.T) {
	cfg, _, err := FromSpec(Spec{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewCollectiveEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(size int) float64 {
		d, err := doe.FullFactorial([]doe.Factor{
			doe.IntFactor(netbench.FactorSize, size),
			doe.NewFactor(netbench.FactorOp, OpAllreduce),
		}, doe.Options{Replicates: 1})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := eng.Execute(d.Trials[0])
		if err != nil {
			t.Fatal(err)
		}
		return rec.Value
	}
	below, above := run(cfg.AllreduceSwitchBytes-1), run(cfg.AllreduceSwitchBytes)
	rel := (below - above) / above
	if rel < 0 {
		rel = -rel
	}
	if rel < 0.2 {
		t.Fatalf("no switchover step: tree %v s at %d vs ring %v s at %d",
			below, cfg.AllreduceSwitchBytes-1, above, cfg.AllreduceSwitchBytes)
	}
}
