package suite

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestCampaignErrorCarriesIdentity: a failing campaign surfaces as a
// CampaignError whose structured fields identify the campaign, its cache
// key and the spec hash — no string parsing — and whose Unwrap chain
// reaches the underlying cause.
func TestCampaignErrorCarriesIdentity(t *testing.T) {
	spec := parseTestSpec(t)
	baseDir := t.TempDir()
	// A directory where the first campaign's CSV should go makes its sink
	// open fail while the other campaigns stay healthy.
	if err := os.MkdirAll(filepath.Join(baseDir, spec.Campaigns[0].Out), 0o777); err != nil {
		t.Fatal(err)
	}
	plans, err := BuildPlans(spec)
	if err != nil {
		t.Fatalf("BuildPlans: %v", err)
	}

	res, err := Run(context.Background(), spec, Options{BaseDir: baseDir})
	if err == nil {
		t.Fatal("run with an unopenable sink succeeded")
	}
	var ce *CampaignError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T does not unwrap to *CampaignError: %v", err, err)
	}
	if ce.Campaign != spec.Campaigns[0].Name || ce.Engine != spec.Campaigns[0].Engine {
		t.Errorf("CampaignError identifies %q/%q, want %q/%q",
			ce.Campaign, ce.Engine, spec.Campaigns[0].Name, spec.Campaigns[0].Engine)
	}
	if ce.Key != plans[0].Key {
		t.Errorf("CampaignError key %q, want %q", ce.Key, plans[0].Key)
	}
	if ce.SpecHash != res.SpecHash || ce.SpecHash == "" {
		t.Errorf("CampaignError spec hash %q, want %q", ce.SpecHash, res.SpecHash)
	}
	var pe *fs.PathError
	if !errors.As(err, &pe) {
		t.Errorf("CampaignError does not unwrap to the underlying *fs.PathError: %v", ce.Err)
	}
	// The campaign result mirrors the same error.
	var crErr *CampaignError
	if !errors.As(res.Campaigns[0].Err, &crErr) || crErr.Campaign != ce.Campaign {
		t.Errorf("CampaignResult.Err %v does not carry the CampaignError", res.Campaigns[0].Err)
	}
}

// TestCampaignErrorWrapsCancellation: a canceled run reports per-campaign
// CampaignErrors through which errors.Is still sees context.Canceled.
func TestCampaignErrorWrapsCancellation(t *testing.T) {
	spec := parseTestSpec(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, spec, Options{BaseDir: t.TempDir()})
	if err == nil {
		t.Fatal("pre-canceled run succeeded")
	}
	var ce *CampaignError
	if !errors.As(err, &ce) {
		t.Fatalf("canceled run error %T is not a *CampaignError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) is false through the CampaignError: %v", err)
	}
}

// TestSharedBudgetCapsConcurrentRuns: two suite runs sharing one Budget
// never hold more workers than its capacity between them, and both report
// the shared capacity as their resolved budget.
func TestSharedBudgetCapsConcurrentRuns(t *testing.T) {
	shared := NewBudget(2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	budgets := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := parseTestSpec(t)
			for j := range spec.Campaigns {
				spec.Campaigns[j].Workers = 4 // deliberately over the shared cap
			}
			res, err := Run(context.Background(), spec, Options{BaseDir: t.TempDir(), Budget: shared})
			errs[i] = err
			if res != nil {
				budgets[i] = res.Budget
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if budgets[i] != 2 {
			t.Errorf("run %d resolved budget %d, want the shared cap 2", i, budgets[i])
		}
	}
	if peak := shared.Peak(); peak < 1 || peak > 2 {
		t.Errorf("shared budget peak %d outside [1, 2]", peak)
	}
	if inUse := shared.InUse(); inUse != 0 {
		t.Errorf("budget leaks %d slots after both runs finished", inUse)
	}
}

// TestProgressAndOnCampaignHooks: the per-campaign hooks fire — progress for
// every executed campaign up to its design size, OnCampaign exactly once per
// campaign with the final verdict — and a warm replay reports no trial
// progress but still completes every campaign.
func TestProgressAndOnCampaignHooks(t *testing.T) {
	spec := parseTestSpec(t)
	cache, _ := openTestStoreCache(t)

	var mu sync.Mutex
	final := map[string]ProgressSnapshot{}
	completed := map[string]CampaignResult{}
	opts := Options{
		Cache:   cache,
		BaseDir: t.TempDir(),
		Progress: func(campaign string, done, total int) {
			mu.Lock()
			final[campaign] = ProgressSnapshot{Done: done, Total: total}
			mu.Unlock()
		},
		OnCampaign: func(cr CampaignResult) {
			mu.Lock()
			if _, dup := completed[cr.Name]; dup {
				t.Errorf("OnCampaign fired twice for %q", cr.Name)
			}
			completed[cr.Name] = cr
			mu.Unlock()
		},
	}
	if _, err := Run(context.Background(), spec, opts); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	plans, err := BuildPlans(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		got, ok := final[p.Campaign.Name]
		if !ok {
			t.Errorf("no progress reported for %q", p.Campaign.Name)
			continue
		}
		if got.Done != p.Design.Size() || got.Total != p.Design.Size() {
			t.Errorf("%q final progress %d/%d, want %d/%d",
				p.Campaign.Name, got.Done, got.Total, p.Design.Size(), p.Design.Size())
		}
		if cr, ok := completed[p.Campaign.Name]; !ok || cr.Hit || cr.Trials == 0 {
			t.Errorf("%q OnCampaign result %+v, want a cold miss with trials", p.Campaign.Name, cr)
		}
	}

	// Warm: replays report completion without trial progress.
	mu.Lock()
	final = map[string]ProgressSnapshot{}
	completed = map[string]CampaignResult{}
	mu.Unlock()
	opts.BaseDir = t.TempDir()
	if _, err := Run(context.Background(), spec, opts); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if len(final) != 0 {
		t.Errorf("warm replay reported trial progress: %v", final)
	}
	if len(completed) != len(spec.Campaigns) {
		t.Errorf("warm OnCampaign fired for %d campaigns, want %d", len(completed), len(spec.Campaigns))
	}
	for name, cr := range completed {
		if !cr.Hit || cr.Trials != 0 {
			t.Errorf("warm %q: verdict %s with %d trials, want hit/0", name, cr.Verdict(), cr.Trials)
		}
	}
}

// ProgressSnapshot is a test-local (done, total) pair.
type ProgressSnapshot struct{ Done, Total int }
