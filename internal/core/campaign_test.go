package core_test

import (
	"context"
	"fmt"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/meta"
	"opaquebench/internal/runner"
)

// The campaign contract of core.Engine, exercised through the runner, the
// one campaign executor: every trial runs once, records come back in design
// order, a trial error fails the campaign and a campaign without a design
// or an engine is refused.

// campaignEngine returns value = size*2 + rep, or fails every trial.
type campaignEngine struct{ fail bool }

func (e *campaignEngine) Execute(t doe.Trial) (core.RawRecord, error) {
	if e.fail {
		return core.RawRecord{}, fmt.Errorf("boom")
	}
	size, err := t.Point.Int("size")
	if err != nil {
		return core.RawRecord{}, err
	}
	return core.RawRecord{Value: float64(size*2 + t.Rep), Seconds: 0.001, At: float64(t.Seq + 1)}, nil
}

func (e *campaignEngine) Environment() *meta.Environment {
	return meta.New().Set("engine", "campaign")
}

func campaignDesign(t *testing.T, reps int) *doe.Design {
	t.Helper()
	d, err := doe.FullFactorial([]doe.Factor{
		doe.IntFactor("size", 10, 20, 30),
		doe.IntFactor("stride", 1, 2),
	}, doe.Options{Replicates: reps, Seed: 42, Randomize: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func campaignFactory(fail bool) core.EngineFactory {
	return core.EngineFactoryFunc(func() (core.Engine, error) {
		return &campaignEngine{fail: fail}, nil
	})
}

func TestCampaignRunsAllTrialsInOrder(t *testing.T) {
	d := campaignDesign(t, 3)
	seq, err := runner.Sequential(context.Background(), d, &campaignEngine{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := runner.Run(context.Background(), d, campaignFactory(false), runner.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*core.Results{"sequential": seq, "4 workers": par} {
		if res.Len() != 18 {
			t.Fatalf("%s: records = %d, want 18", name, res.Len())
		}
		for i, rec := range res.Records {
			if rec.Seq != i {
				t.Fatalf("%s: record %d has Seq %d: execution order broken", name, i, rec.Seq)
			}
			tr := d.Trials[i]
			size, err := tr.Point.Int("size")
			if err != nil {
				t.Fatal(err)
			}
			if want := float64(size*2 + tr.Rep); rec.Value != want {
				t.Fatalf("%s: record %d value = %g, want %g", name, i, rec.Value, want)
			}
		}
	}
}

func TestCampaignPropagatesErrors(t *testing.T) {
	d := campaignDesign(t, 1)
	if _, err := runner.Sequential(context.Background(), d, &campaignEngine{fail: true}); err == nil {
		t.Fatal("sequential: want error")
	}
	if _, err := runner.Run(context.Background(), d, campaignFactory(true), runner.Config{Workers: 4}); err == nil {
		t.Fatal("4 workers: want error")
	}
}

func TestCampaignNilParts(t *testing.T) {
	ctx := context.Background()
	d := campaignDesign(t, 1)
	if _, err := runner.Sequential(ctx, nil, nil); err == nil {
		t.Fatal("want error for empty sequential campaign")
	}
	if _, err := runner.Sequential(ctx, d, nil); err == nil {
		t.Fatal("want error for a sequential campaign without an engine")
	}
	if _, err := runner.Run(ctx, nil, nil, runner.Config{}); err == nil {
		t.Fatal("want error for empty campaign")
	}
	if _, err := runner.Run(ctx, d, nil, runner.Config{}); err == nil {
		t.Fatal("want error for a campaign without an engine factory")
	}
}
