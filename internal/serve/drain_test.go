package serve

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"opaquebench/internal/suite"
)

// TestDrainMidCampaign: Drain called while a campaign is executing rejects
// new submissions with 503, cancels the queued job, lets the running job
// finish, and leaves a cache a fresh orchestrator replays wholesale — no
// torn entries.
func TestDrainMidCampaign(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Slots: 1})
	runningJSON := gatedSpec("drain-running", "drain-g1", 3)
	running, code := submit(t, ts, runningJSON, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit running: status %d", code)
	}
	queued, code := submit(t, ts, gatedSpec("drain-queued", "", 2), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit queued: status %d", code)
	}
	// Hold until the running job is actually mid-campaign.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+running.Job, &st)
		if st.State == string(JobRunning) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// Intake is closed: structured 503, no job minted.
	if _, code := submit(t, ts, gatedSpec("drain-late", "", 1), ""); code != http.StatusServiceUnavailable {
		t.Errorf("submission while draining: status %d, want 503", code)
	}
	// The queued job was canceled without running.
	if st := waitTerminal(t, ts, queued.Job); st.State != string(JobCanceled) {
		t.Errorf("queued job state %s, want canceled", st.State)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a job still running", err)
	default:
	}

	// Open the gate: the running job drains to completion.
	openGate("drain-g1")
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := waitTerminal(t, ts, running.Job); st.State != string(JobDone) {
		t.Fatalf("drained job finished %s: %s", st.State, st.Error)
	}

	// The cache the drained job wrote is whole: once the server has
	// closed its store, a fresh direct run over it replays every campaign
	// without executing a trial. The store is opened read-only, so a miss
	// fails the run loudly instead of quietly re-executing.
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cache, err := suite.ReadCacheStore(srv.CacheStore())
	if err != nil {
		t.Fatalf("open the drained cache: %v", err)
	}
	defer cache.Close()
	spec, err := suite.Parse([]byte(runningJSON), "spec.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := suite.Run(context.Background(), spec, suite.Options{
		Cache: cache, BaseDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("warm replay over the drained cache: %v", err)
	}
	for _, cr := range res.Campaigns {
		if !cr.Hit || cr.Trials != 0 {
			t.Errorf("campaign %s after drain: verdict %s with %d trials, want hit/0",
				cr.Name, cr.Verdict(), cr.Trials)
		}
	}

	// A drained server reports it everywhere it should.
	var h Healthz
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "draining" {
		t.Errorf("healthz status %q while drained", h.Status)
	}
	var metrics strings.Builder
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(&metrics, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(metrics.String(), "served_draining 1") {
		t.Errorf("metrics do not report served_draining 1:\n%s", metrics.String())
	}
}
