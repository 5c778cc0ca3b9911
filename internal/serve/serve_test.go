package serve

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/engine"
	"opaquebench/internal/meta"
	"opaquebench/internal/suite"
)

// serveSpecJSON is the battery's reference suite: the same three-engine
// shape the suite package tests use, small enough that a cold run is
// test-speed.
const serveSpecJSON = `{
  "suite": "serve-t",
  "workers": 4,
  "campaigns": [
    {
      "name": "mem",
      "engine": "membench",
      "seed": 7,
      "config": { "machine": "snowball", "sizes": [1024, 8192], "reps": 2 },
      "out": "mem.csv",
      "jsonl": "mem.jsonl"
    },
    {
      "name": "net",
      "engine": "netbench",
      "seed": 7,
      "config": { "profile": "taurus", "n": 12, "reps": 2, "perturb_factor": 3, "perturb_end": 1 },
      "out": "net.csv",
      "jsonl": "net.jsonl"
    },
    {
      "name": "cpu",
      "engine": "cpubench",
      "seed": 7,
      "config": { "governor": "performance", "policy": "rt", "nloops": [20, 200], "reps": 3 },
      "out": "cpu.csv",
      "jsonl": "cpu.jsonl"
    }
  ]
}`

// newTestServer builds a Server over a temp data dir and an httptest front.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// submit POSTs a spec and decodes the SubmitResponse.
func submit(t *testing.T, ts *httptest.Server, spec string, query string) (SubmitResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/suites"+query, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("submit: decode: %v", err)
		}
	}
	return sr, resp.StatusCode
}

// getJSON fetches a URL and decodes the JSON body into v, returning the
// status code.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: decode %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

// waitTerminal polls the job status until it reaches a terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, job string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st JobStatus
		if code := getJSON(t, ts.URL+"/v1/jobs/"+job, &st); code != http.StatusOK {
			t.Fatalf("job %s: status %d", job, code)
		}
		if JobState(st.State).terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", job, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchResult downloads one campaign's sink bytes.
func fetchResult(t *testing.T, ts *httptest.Server, job, campaign, format string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job + "/results/" + campaign + "?format=" + format)
	if err != nil {
		t.Fatalf("results %s/%s: %v", job, campaign, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("results %s/%s: read: %v", job, campaign, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results %s/%s: status %d: %s", job, campaign, resp.StatusCode, body)
	}
	return body
}

// TestSubmitPollFetchMatchesDirectRun is the core conformance check: a
// suite submitted over HTTP produces, for every campaign and both sink
// formats, bytes identical to a direct suite.Run of the same spec — at
// every worker budget.
func TestSubmitPollFetchMatchesDirectRun(t *testing.T) {
	spec, err := suite.Parse([]byte(serveSpecJSON), "spec.json")
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	if _, err := suite.Run(context.Background(), spec, suite.Options{
		BaseDir: refDir,
	}); err != nil {
		t.Fatalf("direct reference run: %v", err)
	}
	wantHash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: workers})
			sr, code := submit(t, ts, serveSpecJSON, "")
			if code != http.StatusAccepted {
				t.Fatalf("submit status %d", code)
			}
			if sr.SpecHash != wantHash {
				t.Fatalf("service spec hash %s, CLI-parser hash %s", sr.SpecHash, wantHash)
			}
			st := waitTerminal(t, ts, sr.Job)
			if st.State != string(JobDone) {
				t.Fatalf("job finished %s: %s", st.State, st.Error)
			}
			if st.Budget != workers {
				t.Errorf("job resolved budget %d, want %d", st.Budget, workers)
			}
			if len(st.Campaigns) != len(spec.Campaigns) {
				t.Fatalf("status has %d campaigns, want %d", len(st.Campaigns), len(spec.Campaigns))
			}
			for _, cs := range st.Campaigns {
				if cs.Verdict != "miss" || cs.Trials == 0 {
					t.Errorf("campaign %s: verdict %s trials %d, want a cold miss", cs.Name, cs.Verdict, cs.Trials)
				}
			}
			for _, c := range spec.Campaigns {
				for format, rel := range map[string]string{"csv": c.Out, "jsonl": c.JSONL} {
					got := fetchResult(t, ts, sr.Job, c.Name, format)
					want, err := os.ReadFile(filepath.Join(refDir, rel))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("campaign %s %s differs from the direct run (%d vs %d bytes)",
							c.Name, format, len(got), len(want))
					}
				}
			}
		})
	}
}

// TestDuplicateSubmissionReusesJobAndCache: resubmitting a spec returns
// the existing job id without a second execution, and a renamed suite with
// identical campaigns re-runs as a new job whose campaigns are all cache
// hits — zero trials executed.
func TestDuplicateSubmissionReusesJobAndCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	first, code := submit(t, ts, serveSpecJSON, "")
	if code != http.StatusAccepted || first.Duplicate {
		t.Fatalf("first submit: status %d duplicate %v", code, first.Duplicate)
	}
	// Immediate resubmission — the job is queued or running.
	dup, code := submit(t, ts, serveSpecJSON, "")
	if code != http.StatusOK || !dup.Duplicate || dup.Job != first.Job {
		t.Fatalf("in-flight duplicate: status %d, %+v (want job %s)", code, dup, first.Job)
	}
	if st := waitTerminal(t, ts, first.Job); st.State != string(JobDone) {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	// Resubmission after completion still reuses the done job.
	dup, code = submit(t, ts, serveSpecJSON, "")
	if code != http.StatusOK || !dup.Duplicate || dup.Job != first.Job {
		t.Fatalf("post-completion duplicate: status %d, %+v (want job %s)", code, dup, first.Job)
	}
	trialsBefore := srv.snapshotMetrics().trialsExecuted

	// A different suite name is a different spec hash — a new job — but
	// identical campaigns share cache keys, so it replays everything.
	renamed := strings.Replace(serveSpecJSON, `"suite": "serve-t"`, `"suite": "serve-t2"`, 1)
	second, code := submit(t, ts, renamed, "")
	if code != http.StatusAccepted || second.Duplicate || second.Job == first.Job {
		t.Fatalf("renamed submit: status %d, %+v", code, second)
	}
	st := waitTerminal(t, ts, second.Job)
	if st.State != string(JobDone) {
		t.Fatalf("renamed job finished %s: %s", st.State, st.Error)
	}
	for _, cs := range st.Campaigns {
		if cs.Verdict != "hit" || cs.Trials != 0 {
			t.Errorf("renamed campaign %s: verdict %s trials %d, want hit/0", cs.Name, cs.Verdict, cs.Trials)
		}
	}
	if after := srv.snapshotMetrics().trialsExecuted; after != trialsBefore {
		t.Errorf("renamed suite executed %d trials, want 0", after-trialsBefore)
	}
	// The replayed bytes match the originals.
	for _, name := range []string{"mem", "net", "cpu"} {
		a := fetchResult(t, ts, first.Job, name, "csv")
		b := fetchResult(t, ts, second.Job, name, "csv")
		if !bytes.Equal(a, b) {
			t.Errorf("campaign %s: replayed CSV differs from the original", name)
		}
	}
}

// TestConcurrentSubmissionsRespectWorkerBudget: four suites in flight at
// once (four job slots) never hold more workers between them than the
// global budget — the instrumented Budget's high-water mark proves it.
func TestConcurrentSubmissionsRespectWorkerBudget(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, Slots: 4})
	var jobs []string
	for seed := 1; seed <= 4; seed++ {
		spec := strings.Replace(serveSpecJSON, `"seed": 7`, fmt.Sprintf(`"seed": %d`, seed+100), 3)
		spec = strings.Replace(spec, `"suite": "serve-t"`, fmt.Sprintf(`"suite": "serve-t%d"`, seed), 1)
		sr, code := submit(t, ts, spec, "")
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", seed, code)
		}
		jobs = append(jobs, sr.Job)
	}
	for _, job := range jobs {
		st := waitTerminal(t, ts, job)
		if st.State != string(JobDone) {
			t.Fatalf("job %s finished %s: %s", job, st.State, st.Error)
		}
		if st.Budget != 2 {
			t.Errorf("job %s resolved budget %d, want the shared cap 2", job, st.Budget)
		}
	}
	b := srv.Budget()
	if peak := b.Peak(); peak < 1 || peak > b.Cap() {
		t.Errorf("worker budget peak %d outside [1, cap %d]", peak, b.Cap())
	}
	if inUse := b.InUse(); inUse != 0 {
		t.Errorf("budget leaks %d workers after all jobs finished", inUse)
	}
}

// TestQueuePriorityOrder: the scheduler queue is a prioritized FIFO —
// higher priority pops first, submission order breaks ties.
func TestQueuePriorityOrder(t *testing.T) {
	var q jobQueue
	heap.Init(&q)
	for i, p := range []int{0, 5, 0, 5, -1} {
		heap.Push(&q, &Job{id: fmt.Sprintf("j%d", i+1), priority: p, seq: i + 1})
	}
	var got []string
	for q.Len() > 0 {
		got = append(got, heap.Pop(&q).(*Job).id)
	}
	want := []string{"j2", "j4", "j1", "j3", "j5"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
}

// TestSubmitRejections: malformed bodies, unknown engines, escaping output
// paths and oversized payloads all bounce with a structured JSON error and
// create no job.
func TestSubmitRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
		code int
		want string
	}{
		{"syntax", "{\n  \"suite\": \"t\",,\n}", http.StatusBadRequest, "suite.json:2"},
		{"unknown-engine", `{"suite":"t","campaigns":[{"name":"x","engine":"nope","out":"a.csv"}]}`,
			http.StatusBadRequest, "nope"},
		{"absolute-path", `{"suite":"t","campaigns":[{"name":"x","engine":"membench","out":"/etc/passwd"}]}`,
			http.StatusBadRequest, "escapes the job directory"},
		{"dotdot-path", `{"suite":"t","campaigns":[{"name":"x","engine":"membench","out":"../a.csv"}]}`,
			http.StatusBadRequest, "escapes the job directory"},
		{"oversized", `{"pad":"` + strings.Repeat("x", maxSpecBytes) + `"}`,
			http.StatusRequestEntityTooLarge, "exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/suites", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var apiErr apiError
			if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if resp.StatusCode != tc.code {
				t.Errorf("status %d, want %d (%s)", resp.StatusCode, tc.code, apiErr.Error)
			}
			if !strings.Contains(apiErr.Error, tc.want) {
				t.Errorf("error %q does not mention %q", apiErr.Error, tc.want)
			}
		})
	}
	var jobs []JobStatus
	getJSON(t, ts.URL+"/v1/jobs", &jobs)
	if len(jobs) != 0 {
		t.Errorf("rejected submissions created %d jobs", len(jobs))
	}
}

// TestValidateOnly: ?validate runs the full validation gauntlet and hashes
// the spec without creating a job.
func TestValidateOnly(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	sr, code := submit(t, ts, serveSpecJSON, "?validate=1")
	if code != http.StatusOK || sr.State != "validated" || len(sr.SpecHash) != 64 || sr.Job != "" {
		t.Fatalf("validate: status %d, %+v", code, sr)
	}
	var jobs []JobStatus
	getJSON(t, ts.URL+"/v1/jobs", &jobs)
	if len(jobs) != 0 {
		t.Errorf("validate-only created %d jobs", len(jobs))
	}
}

// TestEventsStreamReplay: the NDJSON event log replays the whole job story
// in order — submitted, started, per-campaign progress reaching the design
// size, one campaign verdict each, then the terminal event.
func TestEventsStreamReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	sr, _ := submit(t, ts, serveSpecJSON, "")
	if st := waitTerminal(t, ts, sr.Job); st.State != string(JobDone) {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sr.Job + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	var events []Event
	dec := json.NewDecoder(resp.Body)
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("event stream: %v", err)
		}
		events = append(events, e)
	}
	if len(events) < 5 {
		t.Fatalf("only %d events", len(events))
	}
	finalProgress := map[string]Event{}
	campaigns := map[string]Event{}
	for i, e := range events {
		if e.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
		if e.Job != sr.Job {
			t.Errorf("event %d names job %q", i, e.Job)
		}
		switch e.Type {
		case "progress":
			finalProgress[e.Campaign] = e
		case "campaign":
			campaigns[e.Campaign] = e
		}
	}
	if events[0].Type != "submitted" || events[1].Type != "started" {
		t.Errorf("log opens %s, %s; want submitted, started", events[0].Type, events[1].Type)
	}
	if last := events[len(events)-1]; last.Type != string(JobDone) {
		t.Errorf("log closes with %s, want done", last.Type)
	}
	wantTotals := map[string]int{"mem": 4, "net": 72, "cpu": 6}
	for name, total := range wantTotals {
		if e, ok := finalProgress[name]; !ok || e.Done != total || e.Total != total {
			t.Errorf("campaign %s final progress %+v, want %d/%d", name, e, total, total)
		}
		if e, ok := campaigns[name]; !ok || e.Verdict != "miss" || e.Trials != total {
			t.Errorf("campaign %s verdict event %+v, want miss with %d trials", name, e, total)
		}
	}
}

// --- gated engine ------------------------------------------------------
//
// gatebench is a test-binary-only engine whose trials block on a named
// gate until the test opens it: the deterministic way to hold a job
// mid-campaign for the cancellation, scheduling and drain tests.
// Registration is per test binary; the real registry of a shipped binary
// never sees it.

var gateRegistry = struct {
	sync.Mutex
	chans map[string]chan struct{}
	open  map[string]bool
}{chans: map[string]chan struct{}{}, open: map[string]bool{}}

func gateChan(name string) chan struct{} {
	gateRegistry.Lock()
	defer gateRegistry.Unlock()
	c, ok := gateRegistry.chans[name]
	if !ok {
		c = make(chan struct{})
		gateRegistry.chans[name] = c
	}
	return c
}

func openGate(name string) {
	c := gateChan(name)
	gateRegistry.Lock()
	defer gateRegistry.Unlock()
	if !gateRegistry.open[name] {
		gateRegistry.open[name] = true
		close(c)
	}
}

type gateSpec struct {
	Gate   string `json:"gate,omitempty"`
	Trials int    `json:"trials,omitempty"`
}

func (s gateSpec) trials() int {
	if s.Trials <= 0 {
		return 2
	}
	return s.Trials
}

func (s gateSpec) ZoomFactor() string { return "x" }

func (s gateSpec) Refine(seed uint64, levels []int, reps int) (*doe.Design, error) {
	if reps <= 0 {
		reps = 1
	}
	return doe.FullFactorial([]doe.Factor{doe.IntFactor("x", levels...)},
		doe.Options{Replicates: reps, Seed: seed, Randomize: true, Origin: doe.OriginZoom})
}

type gateDef struct{}

func (gateDef) Name() string         { return "gatebench" }
func (gateDef) HigherIsBetter() bool { return true }

func (gateDef) Decode(raw json.RawMessage) (engine.Spec, error) {
	var s gateSpec
	if err := engine.StrictDecode(raw, &s); err != nil {
		return nil, err
	}
	return s, nil
}

func (gateDef) Build(spec engine.Spec, seed uint64) (core.EngineFactory, *doe.Design, error) {
	s, ok := spec.(gateSpec)
	if !ok {
		return nil, nil, fmt.Errorf("gatebench: spec is %T", spec)
	}
	levels := make([]int, s.trials())
	for i := range levels {
		levels[i] = i + 1
	}
	design, err := doe.FullFactorial([]doe.Factor{doe.IntFactor("x", levels...)},
		doe.Options{Replicates: 1, Seed: seed, Randomize: true})
	if err != nil {
		return nil, nil, err
	}
	gate := s.Gate
	factory := core.EngineFactoryFunc(func() (core.Engine, error) {
		return &gateEngine{gate: gate}, nil
	})
	return factory, design, nil
}

type gateEngine struct{ gate string }

func (e *gateEngine) Environment() *meta.Environment { return meta.New() }

func (e *gateEngine) Execute(t doe.Trial) (core.RawRecord, error) {
	if e.gate != "" {
		<-gateChan(e.gate)
	}
	x, err := t.Point.Float("x")
	if err != nil {
		return core.RawRecord{}, err
	}
	return core.RawRecord{Value: x, Seconds: x * 1e-6, At: float64(t.Seq)}, nil
}

func init() {
	engine.Register(gateDef{})
}

// gatedSpec builds a one-campaign gatebench suite blocked on the named
// gate.
func gatedSpec(suiteName, gate string, trials int) string {
	return fmt.Sprintf(`{"suite": %q, "workers": 1, "campaigns": [
	  {"name": "gated", "engine": "gatebench", "seed": 3,
	   "config": {"gate": %q, "trials": %d}, "out": "gated.csv"}]}`,
		suiteName, gate, trials)
}

// TestCancelQueuedAndRunning: DELETE cancels a queued job outright and a
// running one through its context; canceled specs may be resubmitted and
// run as fresh jobs.
func TestCancelQueuedAndRunning(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Slots: 1})
	running, code := submit(t, ts, gatedSpec("cancel-running", "cancel-g1", 4), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit running: status %d", code)
	}
	queuedJSON := gatedSpec("cancel-queued", "", 2)
	queued, code := submit(t, ts, queuedJSON, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit queued: status %d", code)
	}

	// The queued job (the single slot is occupied) cancels immediately.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.Job, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: status %d", resp.StatusCode)
	}
	if st := waitTerminal(t, ts, queued.Job); st.State != string(JobCanceled) {
		t.Fatalf("queued job state %s, want canceled", st.State)
	}

	// The running job needs its context canceled, then the gate opened so
	// the blocked trial can unwind.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.Job, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running: status %d", resp.StatusCode)
	}
	openGate("cancel-g1")
	if st := waitTerminal(t, ts, running.Job); st.State != string(JobCanceled) {
		t.Fatalf("running job state %s, want canceled", st.State)
	}

	// Canceled jobs are not dedupe targets: the queued spec resubmits as a
	// fresh job and completes.
	again, code := submit(t, ts, queuedJSON, "")
	if code != http.StatusAccepted || again.Duplicate || again.Job == queued.Job {
		t.Fatalf("resubmit after cancel: status %d, %+v", code, again)
	}
	if st := waitTerminal(t, ts, again.Job); st.State != string(JobDone) {
		t.Fatalf("resubmitted job finished %s: %s", st.State, st.Error)
	}

	// A second DELETE on a terminal job conflicts.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.Job, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("double cancel: status %d, want 409", resp.StatusCode)
	}
}

// TestEnginesEndpoint: the engine listing covers the registry, directions
// included.
func TestEnginesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var engines []EngineInfo
	if code := getJSON(t, ts.URL+"/v1/engines", &engines); code != http.StatusOK {
		t.Fatalf("engines: status %d", code)
	}
	byName := map[string]EngineInfo{}
	for _, e := range engines {
		byName[e.Name] = e
	}
	for name, higher := range map[string]bool{"membench": true, "netbench": false, "cpubench": true, "numabench": true, "collbench": false, "gatebench": true} {
		e, ok := byName[name]
		if !ok {
			t.Errorf("engine %s missing from listing", name)
			continue
		}
		if e.HigherIsBetter != higher {
			t.Errorf("engine %s direction %v, want %v", name, e.HigherIsBetter, higher)
		}
	}
}

// TestStoreBackedCacheServesIdenticalBytes: a daemon on an explicit cache
// store path serves byte-identical results to one on the default store
// under its data directory, a renamed resubmission replays entirely from
// the shared store (zero trials), and the store passes its own integrity
// check after Close.
func TestStoreBackedCacheServesIdenticalBytes(t *testing.T) {
	// Reference: a server on the default store, DataDir/cache.store.
	dataDir := t.TempDir()
	refSrv, refTS := newTestServer(t, Config{Workers: 2, DataDir: dataDir})
	if want := filepath.Join(dataDir, "cache.store"); refSrv.CacheStore() != want {
		t.Errorf("default cache store %s, want %s", refSrv.CacheStore(), want)
	}
	ref, code := submit(t, refTS, serveSpecJSON, "")
	if code != http.StatusAccepted {
		t.Fatalf("reference submit: status %d", code)
	}
	if st := waitTerminal(t, refTS, ref.Job); st.State != string(JobDone) {
		t.Fatalf("reference job finished %s: %s", st.State, st.Error)
	}
	if _, err := os.Stat(refSrv.CacheStore()); err != nil {
		t.Errorf("default cache store not created: %v", err)
	}

	storePath := filepath.Join(t.TempDir(), "cache.store")
	srv, ts := newTestServer(t, Config{Workers: 2, CacheStore: storePath})
	first, code := submit(t, ts, serveSpecJSON, "")
	if code != http.StatusAccepted {
		t.Fatalf("store submit: status %d", code)
	}
	st := waitTerminal(t, ts, first.Job)
	if st.State != string(JobDone) {
		t.Fatalf("store job finished %s: %s", st.State, st.Error)
	}
	for _, cs := range st.Campaigns {
		if cs.Verdict != "miss" || cs.Trials == 0 {
			t.Errorf("store cold campaign %s: verdict %s trials %d", cs.Name, cs.Verdict, cs.Trials)
		}
	}
	for _, name := range []string{"mem", "net", "cpu"} {
		for _, format := range []string{"csv", "jsonl"} {
			want := fetchResult(t, refTS, ref.Job, name, format)
			got := fetchResult(t, ts, first.Job, name, format)
			if !bytes.Equal(want, got) {
				t.Errorf("campaign %s %s differs between the two servers (%d vs %d bytes)",
					name, format, len(want), len(got))
			}
		}
	}

	// A renamed suite is a new job but identical campaigns: every one must
	// replay from the shared store, executing nothing.
	renamed := strings.Replace(serveSpecJSON, `"suite": "serve-t"`, `"suite": "serve-t-store"`, 1)
	second, code := submit(t, ts, renamed, "")
	if code != http.StatusAccepted {
		t.Fatalf("renamed submit: status %d", code)
	}
	st = waitTerminal(t, ts, second.Job)
	if st.State != string(JobDone) {
		t.Fatalf("renamed job finished %s: %s", st.State, st.Error)
	}
	for _, cs := range st.Campaigns {
		if cs.Verdict != "hit" || cs.Trials != 0 {
			t.Errorf("renamed campaign %s: verdict %s trials %d, want hit/0", cs.Name, cs.Verdict, cs.Trials)
		}
	}
	for _, name := range []string{"mem", "net", "cpu"} {
		a := fetchResult(t, ts, first.Job, name, "csv")
		b := fetchResult(t, ts, second.Job, name, "csv")
		if !bytes.Equal(a, b) {
			t.Errorf("campaign %s: store replay differs from the original", name)
		}
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	verify, err := suite.ReadCacheStore(storePath)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer verify.Close()
	if _, err := verify.Backing().Verify(); err != nil {
		t.Errorf("store Verify after daemon shutdown: %v", err)
	}
	if got := verify.Backing().Len(); got != 3 {
		t.Errorf("store holds %d entries, want 3", got)
	}
}
