package collbench

import (
	"reflect"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/netbench"
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
// validates every submission. 1<<50 ranks of 8-byte clocks exceed the
// largest possible allocation, so any per-rank buffer built at validation
// panics here instead of exhausting memory.
func TestFromSpecHugeRanksValidatesCheaply(t *testing.T) {
	cfg, _, err := FromSpec(Spec{Ranks: 1 << 50, N: 2, Reps: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Ranks != 1<<50 {
		t.Fatalf("ranks = %d", cfg.Ranks)
	}
	if _, err := CollectiveFactory(cfg).NewEngine(); err != nil {
		t.Fatal(err)
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
