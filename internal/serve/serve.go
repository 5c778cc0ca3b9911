// Package serve is the campaign service daemon: a long-running HTTP/JSON
// front end over the declarative suite orchestrator (internal/suite), the
// repo's first serving surface. Clients POST suite specs — validated by the
// same line-precise parser and hashed to the same canonical spec hash the
// cmd/suite CLI uses — and get back a job they can poll, stream, cancel and
// fetch byte-identical results from.
//
// Three properties carry the paper's reproducibility discipline into a
// multi-tenant service:
//
//   - Dedupe by construction. A submission's identity is its canonical spec
//     hash: while a job for that hash is queued, running or done, submitting
//     the same spec returns the existing job id instead of re-running. One
//     level down, the shared content-addressed result cache dedupes at
//     campaign granularity — two different suites naming an identical
//     campaign replay each other's records, so a duplicate study costs zero
//     trials no matter who submits it.
//
//   - One worker budget. Every concurrently running suite draws from a
//     single instrumented suite.Budget, so the machine-wide worker cap holds
//     no matter how many jobs are in flight; the scheduler is a prioritized
//     FIFO (higher priority first, submission order within a priority) over
//     a bounded number of job slots.
//
//   - Nothing blocks the measurement. Progress streams from the runner's
//     collector through runner.ProgressChan (never-blocking, oldest-dropped)
//     into per-job append-only event logs; a wedged NDJSON subscriber makes
//     its own view coarser, never the campaign slower.
//
// Shutdown is graceful: Drain rejects new submissions with 503, cancels
// queued jobs, and waits for running suites to finish, so no cache entry is
// interrupted mid-append. cmd/served is the command-line face.
package serve

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"opaquebench/internal/suite"
)

// Config tunes a Server.
type Config struct {
	// Workers is the global worker budget shared by every running suite;
	// < 1 means runtime.GOMAXPROCS(0).
	Workers int
	// Slots is the number of suite jobs allowed to run concurrently;
	// queued jobs wait for a slot. < 1 means 2.
	Slots int
	// DataDir holds per-job outputs (DataDir/jobs/<id>/) and, unless
	// CacheStore overrides it, the shared result cache
	// (DataDir/cache.store).
	DataDir string
	// CacheStore overrides the path of the shared cache's store file
	// (internal/store). Every job shares the one open store.
	CacheStore string
	// Now is the server clock; nil means time.Now. Tests inject a fixed
	// clock to make /healthz and /metrics output reproducible.
	Now func() time.Time
	// Log, when non-nil, receives server log lines.
	Log io.Writer
}

// Server is the campaign service: an http.Handler (via Handler) plus the
// scheduler state behind it. Create with New; a Server has no background
// goroutines of its own — jobs run on goroutines started at dispatch and
// accounted for by Drain.
type Server struct {
	dataDir string
	slots   int
	budget  *suite.Budget
	now     func() time.Time
	start   time.Time
	log     io.Writer

	// The shared cache, opened lazily on the first job (New must not
	// create anything on disk) and shared by every job thereafter.
	cacheStore string
	cacheOnce  sync.Once
	cache      *suite.Cache
	cacheErr   error

	mu          sync.Mutex
	jobs        map[string]*Job
	order       []*Job          // submission order, for listings
	byHash      map[string]*Job // dedupe index: spec hash → reusable job
	queue       jobQueue
	nextID      int
	seq         int
	runningJobs int
	draining    bool

	trialsExecuted  int64
	recordsStreamed int64
	cacheHits       int64
	cacheLookups    int64

	wg sync.WaitGroup // running jobs
}

// New builds a Server. Nothing is created on disk until the first job runs.
func New(cfg Config) *Server {
	slots := cfg.Slots
	if slots < 1 {
		slots = 2
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	cacheStore := cfg.CacheStore
	if cacheStore == "" {
		cacheStore = filepath.Join(cfg.DataDir, "cache.store")
	}
	s := &Server{
		dataDir:    cfg.DataDir,
		cacheStore: cacheStore,
		slots:      slots,
		budget:     suite.NewBudget(cfg.Workers),
		now:        now,
		log:        cfg.Log,
		jobs:       map[string]*Job{},
		byHash:     map[string]*Job{},
	}
	s.start = s.now()
	return s
}

// jobCache resolves the shared cache jobs run against, opening its store
// on first use. The first open failure latches: a daemon whose store
// cannot open fails every job loudly rather than silently re-running cold
// against nothing.
func (s *Server) jobCache() (*suite.Cache, error) {
	s.cacheOnce.Do(func() {
		if dir := filepath.Dir(s.cacheStore); dir != "" {
			if err := os.MkdirAll(dir, 0o777); err != nil {
				s.cacheErr = err
				return
			}
		}
		s.cache, s.cacheErr = suite.OpenCacheStore(s.cacheStore)
		if s.cacheErr == nil {
			s.logf("cache store open: %s", s.cacheStore)
		}
	})
	return s.cache, s.cacheErr
}

// Close releases the shared cache, flushing its store's sidecar index.
// Call it after Drain; a Server that never ran a job closes trivially.
func (s *Server) Close() error {
	if s.cache != nil {
		return s.cache.Close()
	}
	return nil
}

// Budget exposes the shared instrumented worker budget — the object whose
// Peak() a conformance test compares against Cap() to prove the worker
// invariant.
func (s *Server) Budget() *suite.Budget { return s.budget }

// CacheStore is the path of the shared cache's store file.
func (s *Server) CacheStore() string { return s.cacheStore }

// logf writes one server log line.
func (s *Server) logf(format string, args ...any) {
	if s.log == nil {
		return
	}
	fmt.Fprintf(s.log, "served: "+format+"\n", args...)
}

// Drain shuts the intake and empties the floor: new submissions are
// rejected with 503, queued jobs are canceled, and Drain blocks until every
// running job has finished (or ctx expires, in which case the remaining
// jobs keep running and Drain reports the context cause). Cache stores are
// atomic, so a drained shutdown leaves no torn entries by construction.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	var canceled []*Job
	for s.queue.Len() > 0 {
		j := s.queue[0]
		s.queue = s.queue[1:]
		if j.state != JobQueued {
			continue
		}
		j.state = JobCanceled
		j.finished = s.now()
		if s.byHash[j.specHash] == j {
			delete(s.byHash, j.specHash)
		}
		canceled = append(canceled, j)
	}
	s.mu.Unlock()
	for _, j := range canceled {
		s.jobEvent(j, Event{Type: string(JobCanceled), Error: "server draining"})
		j.events.close()
	}
	s.logf("draining: %d queued jobs canceled, waiting for running jobs", len(canceled))

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.logf("drained")
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
