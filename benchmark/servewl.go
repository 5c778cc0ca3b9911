package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"opaquebench/internal/serve"
	"opaquebench/internal/suite"
)

// serveInstance drives the daemon over HTTP with W closed-loop clients. An
// op is one job: submit a light-cold suite, read the job's event stream to
// its end, then fetch every campaign's CSV. Client c's op j (j = 4, 8, ...)
// resends its op j-3 verbatim, so a quarter of the ops are dedupe hits.
type serveInstance struct {
	e         *env
	srv       *serve.Server
	ts        *httptest.Server
	client    *http.Client
	storePath string
	probe     *suite.Cache

	mu   sync.Mutex
	sent map[[2]int]submission // (client, j) → what op j submitted
}

type submission struct {
	spec   []byte
	seed   uint64
	job    string
	digest []digest
}

func startServe(ctx context.Context, e *env) (instance, error) {
	s := &serveInstance{e: e, storePath: filepath.Join(e.dir, "cache.log"), sent: map[[2]int]submission{}}
	s.srv = serve.New(serve.Config{Workers: e.w, DataDir: filepath.Join(e.dir, "data"), CacheStore: s.storePath})
	s.ts = httptest.NewServer(s.srv.Handler())
	transport := s.ts.Client().Transport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = 2 * e.w
	s.client = &http.Client{Transport: transport}
	if w := s.op(ctx, -1, -1, 0, 0); w.Err != "" {
		s.shutdown(ctx)
		return nil, fmt.Errorf("warm-up op: %s", w.Err)
	}
	return s, nil
}

func (s *serveInstance) clients() int { return s.e.w }

func (s *serveInstance) op(ctx context.Context, id, parent, client, j int) opSample {
	smp := opSample{ID: id, Client: client, Index: j, Campaigns: len(lightCampaigns)}
	var data []byte
	var orig submission
	if j > 0 && j%4 == 0 {
		s.mu.Lock()
		orig = s.sent[[2]int{client, j - 3}]
		s.mu.Unlock()
		data, smp.Seed, smp.Duplicate = orig.spec, orig.seed, true
	} else {
		smp.Seed = s.e.opSeed(client, j)
		seeds := make([]uint64, len(lightCampaigns))
		for c := range seeds {
			seeds[c] = mix(smp.Seed, uint64(c))
		}
		var err error
		if _, data, err = studySpec(s.e.name, lightCampaigns, seeds, s.e.w, s.e.trace); err != nil {
			smp.fail("spec: %v", err)
			return smp
		}
	}
	smp.spec = data

	smp.start = time.Now()
	resp, err := s.submit(ctx, data)
	submitted := time.Now()
	if err != nil {
		smp.end = submitted
		smp.fail("submit: %v", err)
		return smp
	}
	smp.job = resp.Job
	started, last, err := s.events(ctx, resp.Job)
	ran := time.Now()
	if err != nil {
		smp.end = ran
		smp.fail("events: %v", err)
		return smp
	}
	ds := make([]digest, len(lightCampaigns))
	for c, camp := range lightCampaigns {
		body, err := s.get(ctx, fmt.Sprintf("/v1/jobs/%s/results/%s", resp.Job, camp.name))
		if err != nil {
			smp.fail("fetch %s: %v", camp.name, err)
			break
		}
		ds[c] = digest{CSV: sum(body)}
	}
	smp.end = time.Now()

	if s.e.trace && parent >= 0 {
		for _, p := range []struct {
			name string
			a, b time.Time
		}{
			{"serve.submit", smp.start, submitted},
			{"serve.queue_wait", submitted, later(started, submitted)},
			{"serve.run", later(started, submitted), ran},
			{"serve.fetch", ran, smp.end},
		} {
			tr.add(span{Name: p.name, Op: id, Parent: parent, Start: tr.at(p.a), End: tr.at(p.b)})
		}
	}
	if last != string(serve.JobDone) {
		smp.fail("event stream of job %s ended in %q, not done", resp.Job, last)
	}
	if smp.Duplicate {
		switch {
		case !resp.Duplicate || resp.Job != orig.job:
			smp.fail("resubmission answered job %s (duplicate %v), want duplicate of %s", resp.Job, resp.Duplicate, orig.job)
		case opDigest(ds) != opDigest(orig.digest):
			smp.fail("duplicate job served other bytes than the original fetch")
		}
	} else if resp.Duplicate {
		smp.fail("fresh submission answered as a duplicate of job %s", resp.Job)
	}
	smp.Digest = opDigest(ds)
	for c, d := range ds {
		smp.camps = append(smp.camps, campaignOutcome{name: lightCampaigns[c].name, digest: d})
	}
	if !smp.Duplicate {
		s.mu.Lock()
		s.sent[[2]int{client, j}] = submission{spec: data, seed: smp.Seed, job: resp.Job, digest: ds}
		s.mu.Unlock()
	}
	return smp
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func (s *serveInstance) submit(ctx context.Context, spec []byte) (*serve.SubmitResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/v1/suites", bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	res, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK && res.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("status %d: %s", res.StatusCode, bytes.TrimSpace(body))
	}
	var out serve.SubmitResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// events reads a job's NDJSON event stream to its end and returns when the
// "started" line arrived and the type of the last line.
func (s *serveInstance) events(ctx context.Context, job string) (started time.Time, last string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/v1/jobs/"+job+"/events", nil)
	if err != nil {
		return started, "", err
	}
	res, err := s.client.Do(req)
	if err != nil {
		return started, "", err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return started, "", fmt.Errorf("status %d", res.StatusCode)
	}
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return started, "", err
		}
		if ev.Type == "started" {
			started = time.Now()
		}
		last = ev.Type
	}
	return started, last, sc.Err()
}

func (s *serveInstance) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+path, nil)
	if err != nil {
		return nil, err
	}
	res, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", res.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// finish reads every job's final status for the counts the event stream
// does not carry, checks every 10th fresh job's CSVs against a direct
// one-worker uncached suite.Run of the same spec, then drains the daemon.
func (s *serveInstance) finish(ctx context.Context, samples []opSample) ([]string, error) {
	body, err := s.get(ctx, "/v1/jobs")
	if err != nil {
		return nil, err
	}
	var jobs []serve.JobStatus
	if err := json.Unmarshal(body, &jobs); err != nil {
		return nil, err
	}
	byID := map[string]serve.JobStatus{}
	for _, j := range jobs {
		byID[j.Job] = j
	}
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return samples[order[a]].ID < samples[order[b]].ID })
	fresh := 0
	refDir := filepath.Join(s.e.dir, "ref")
	for _, i := range order {
		smp := &samples[i]
		if smp.Err != "" || smp.Duplicate {
			continue
		}
		st, ok := byID[smp.job]
		if !ok || len(st.Campaigns) != len(smp.camps) {
			smp.fail("job %s: status lists %d campaigns", smp.job, len(st.Campaigns))
			continue
		}
		for c, cs := range st.Campaigns {
			co := &smp.camps[c]
			co.keys, co.hit, co.trials = []string{cs.Key}, cs.Verdict == "hit", cs.Trials
			co.seed = mix(smp.Seed, uint64(c))
			smp.Trials += cs.Trials
			smp.Records += cs.Records
			if co.hit {
				smp.Hits++
			}
		}
		fresh++
		if fresh%10 != 1 {
			continue
		}
		seeds := make([]uint64, len(lightCampaigns))
		for c := range seeds {
			seeds[c] = mix(smp.Seed, uint64(c))
		}
		ref, err := referenceRun(ctx, s.e.name, lightCampaigns, seeds, refDir)
		if err != nil {
			return nil, err
		}
		for c := range ref {
			if ref[c].CSV != smp.camps[c].digest.CSV {
				smp.fail("campaign %s: fetched CSV differs from a direct suite.Run", smp.camps[c].name)
			}
		}
	}
	if err := s.shutdown(ctx); err != nil {
		return nil, err
	}
	return failures(samples), nil
}

// shutdown stops the HTTP server, drains the daemon and closes its store.
func (s *serveInstance) shutdown(ctx context.Context) error {
	if s.ts == nil {
		return nil
	}
	s.ts.Close()
	s.ts = nil
	if err := s.srv.Drain(ctx); err != nil {
		return err
	}
	return s.srv.Close()
}

// probeCache opens the drained daemon's store read-only.
func (s *serveInstance) probeCache() (*suite.Cache, error) {
	if s.probe == nil {
		c, err := suite.ReadCacheStore(s.storePath)
		if err != nil {
			return nil, err
		}
		s.probe = c
	}
	return s.probe, nil
}

func (s *serveInstance) logSize() int64 {
	fi, err := os.Stat(s.storePath)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (s *serveInstance) close() error {
	err := s.shutdown(context.Background())
	if s.probe != nil {
		if cerr := s.probe.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
