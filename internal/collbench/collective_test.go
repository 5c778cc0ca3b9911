package collbench

import (
	"context"
	"reflect"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/netbench"
	"opaquebench/internal/netsim"
	"opaquebench/internal/runner"
	"opaquebench/internal/stats"
)

func collectiveCampaign(t *testing.T, cfg CollectiveConfig, nSizes, reps int, ops []string) *core.Results {
	t.Helper()
	d, err := CollectiveDesign(cfg.Seed, nSizes, 64, 1<<20, reps, ops, true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewCollectiveEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Sequential(context.Background(), d, e)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewCollectiveEngineValidates(t *testing.T) {
	if _, err := NewCollectiveEngine(CollectiveConfig{}); err == nil {
		t.Fatal("nil profile accepted")
	}
	if _, err := NewCollectiveEngine(CollectiveConfig{Profile: netsim.Taurus(), Ranks: 1}); err == nil {
		t.Fatal("1 rank accepted")
	}
	e, err := NewCollectiveEngine(CollectiveConfig{Profile: netsim.Taurus()})
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.Ranks != 8 {
		t.Fatalf("default ranks = %d", e.cfg.Ranks)
	}
}

func TestCollectiveDesignRejectsUnknownOp(t *testing.T) {
	if _, err := CollectiveDesign(1, 10, 64, 1024, 1, []string{"alltoallw"}, true); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestCollectiveCampaignProducesBothOps(t *testing.T) {
	res := collectiveCampaign(t, CollectiveConfig{Profile: netsim.MyrinetGM(), Seed: 1}, 40, 2, nil)
	byOp := res.GroupBy(netbench.FactorOp)
	if len(byOp[OpBcast]) == 0 || len(byOp[OpAllreduce]) == 0 {
		t.Fatalf("ops = %v", len(byOp))
	}
	for _, rec := range res.Records {
		if rec.Value <= 0 {
			t.Fatalf("duration %v", rec.Value)
		}
		if rec.Extra["ranks"] != "8" {
			t.Fatalf("ranks annotation %q", rec.Extra["ranks"])
		}
	}
}

func TestBcastTimeGrowsWithSize(t *testing.T) {
	res := collectiveCampaign(t, CollectiveConfig{Profile: netsim.MyrinetGM(), Seed: 2}, 120, 2, []string{OpBcast})
	xs, ys := res.XY(netbench.FactorSize)
	fit, err := stats.FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope <= 0 {
		t.Fatalf("slope = %v", fit.Slope)
	}
	if fit.R2 < 0.8 {
		t.Fatalf("R2 = %v; bcast time should be strongly size-driven", fit.R2)
	}
}

func TestAllreduceCheaperPerByteThanNaive(t *testing.T) {
	// The ring algorithm's per-byte cost must be far below n sequential
	// point-to-point transfers of the full payload.
	profile := netsim.MyrinetGM()
	res := collectiveCampaign(t, CollectiveConfig{Profile: profile, Seed: 3, Ranks: 8}, 80, 2, []string{OpAllreduce})
	xs, ys := res.XY(netbench.FactorSize)
	fit, err := stats.FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	naivePerByte := 8 * profile.Regimes[0].GapPerByte
	if fit.Slope >= naivePerByte {
		t.Fatalf("allreduce per-byte %v should beat naive %v", fit.Slope, naivePerByte)
	}
}

func TestBarrierSizeInvariant(t *testing.T) {
	res := collectiveCampaign(t, CollectiveConfig{Profile: netsim.MyrinetGM(), Seed: 4}, 60, 2, []string{OpBarrier})
	xs, ys := res.XY(netbench.FactorSize)
	r, err := stats.Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if r > 0.3 || r < -0.3 {
		t.Fatalf("barrier time correlates with size: r=%v", r)
	}
}

func TestCollectiveExecuteErrors(t *testing.T) {
	e, err := NewCollectiveEngine(CollectiveConfig{Profile: netsim.Taurus(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(doe.Trial{Point: doe.Point{"size": "abc"}}); err == nil {
		t.Fatal("bad size accepted")
	}
	if _, err := e.Execute(doe.Trial{Point: doe.Point{"size": "1024", "op": "gatherv"}}); err == nil {
		t.Fatal("bad op accepted")
	}
}

func TestCollectiveEngineTrialIndexed(t *testing.T) {
	// The group seed and the noise stream derive from (Seed, Trial.Seq),
	// so a fresh engine replaying the design in reverse order must
	// reproduce every record exactly — the property that lets collbench
	// shard collective campaigns across runner workers.
	cfg := CollectiveConfig{Profile: netsim.Taurus(), Seed: 7, AllreduceSwitchBytes: 16384}
	d, err := CollectiveDesign(7, 24, 4, 1<<20, 2, []string{OpBcast, OpAllreduce, OpBarrier}, true)
	if err != nil {
		t.Fatal(err)
	}
	forward, err := NewCollectiveEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]core.RawRecord, d.Size())
	for i, tr := range d.Trials {
		if recs[i], err = forward.Execute(tr); err != nil {
			t.Fatal(err)
		}
	}
	reversed, err := NewCollectiveEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := d.Size() - 1; i >= 0; i-- {
		rec, err := reversed.Execute(d.Trials[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec, recs[i]) {
			t.Fatalf("trial %d depends on execution order:\nin-order %+v\nreverse  %+v", d.Trials[i].Seq, recs[i], rec)
		}
	}
}

func TestCollectiveAllreduceClampAnnotated(t *testing.T) {
	// An allreduce smaller than the communicator cannot split into ring
	// chunks: the engine rounds it up to one byte per rank and records the
	// effective size instead of silently measuring different bytes.
	e, err := NewCollectiveEngine(CollectiveConfig{Profile: netsim.Taurus(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := e.Execute(doe.Trial{Seq: 0, Point: doe.Point{"size": "3", "op": OpAllreduce}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Extra["allreduce_effective_size"] != "8" {
		t.Fatalf("clamped allreduce not annotated: %v", rec.Extra)
	}
	rec, err = e.Execute(doe.Trial{Seq: 1, Point: doe.Point{"size": "64", "op": OpAllreduce}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.Extra["allreduce_effective_size"]; ok {
		t.Fatalf("full-size allreduce wrongly annotated: %v", rec.Extra)
	}
}

func TestCollectiveEnvironment(t *testing.T) {
	e, err := NewCollectiveEngine(CollectiveConfig{Profile: netsim.Taurus(), Ranks: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	env := e.Environment()
	if env.Get("ranks") != "16" || env.Get("engine") != "collective" {
		t.Fatalf("env = %v", env.Fields)
	}
}
