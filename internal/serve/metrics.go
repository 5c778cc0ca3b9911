package serve

import (
	"fmt"
	"net/http"
	"sort"

	"opaquebench/internal/engine"
)

// Healthz is the GET /healthz reply: a liveness probe with just enough
// shape for an operator to tell a healthy daemon from a draining one.
type Healthz struct {
	Status  string `json:"status"` // "ok" or "draining"
	Workers int    `json:"workers"`
	Slots   int    `json:"slots"`
	Engines int    `json:"engines"`
	Cache   string `json:"cache"` // the shared cache's store file
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Healthz{
		Status:  "ok",
		Workers: s.budget.Cap(),
		Slots:   s.slots,
		Engines: len(engine.Names()),
		Cache:   s.cacheStore,
	}
	if s.Draining() {
		h.Status = "draining"
	}
	writeJSON(w, http.StatusOK, h)
}

// metricsSnapshot is everything /metrics renders, captured under one lock
// so the exposition is internally consistent.
type metricsSnapshot struct {
	uptimeSeconds   float64
	workers         int
	slots           int
	draining        int
	jobsByState     map[JobState]int
	queueDepth      int
	runningJobs     int
	workersInUse    int
	workersPeak     int
	trialsExecuted  int64
	recordsStreamed int64
	cacheLookups    int64
	cacheHits       int64
}

func (s *Server) snapshotMetrics() metricsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := metricsSnapshot{
		uptimeSeconds:   s.now().Sub(s.start).Seconds(),
		workers:         s.budget.Cap(),
		slots:           s.slots,
		jobsByState:     map[JobState]int{},
		queueDepth:      s.queue.Len(),
		runningJobs:     s.runningJobs,
		workersInUse:    s.budget.InUse(),
		workersPeak:     s.budget.Peak(),
		trialsExecuted:  s.trialsExecuted,
		recordsStreamed: s.recordsStreamed,
		cacheLookups:    s.cacheLookups,
		cacheHits:       s.cacheHits,
	}
	if s.draining {
		m.draining = 1
	}
	for _, j := range s.order {
		m.jobsByState[j.state]++
	}
	return m
}

// trialsPerSecond is the throughput gauge; zero uptime (a fixed test
// clock) reports zero rather than dividing by it.
func trialsPerSecond(trials int64, uptimeSeconds float64) float64 {
	if uptimeSeconds <= 0 {
		return 0
	}
	return float64(trials) / uptimeSeconds
}

// handleMetrics renders a Prometheus-style text exposition from the
// snapshot: stable key order, HELP/TYPE lines, no client library.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.snapshotMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)

	gauge := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}

	gauge("served_uptime_seconds", "Seconds since the server started.", m.uptimeSeconds)
	gauge("served_workers", "Global worker budget shared by all running suites.", m.workers)
	gauge("served_workers_in_use", "Workers currently held by running campaigns.", m.workersInUse)
	gauge("served_workers_peak", "High-water mark of workers held at once.", m.workersPeak)
	gauge("served_job_slots", "Concurrent suite job limit.", m.slots)
	gauge("served_jobs_running", "Jobs currently executing.", m.runningJobs)
	gauge("served_queue_depth", "Jobs waiting for a slot.", m.queueDepth)
	gauge("served_draining", "1 while the server is draining, else 0.", m.draining)

	fmt.Fprintf(w, "# HELP served_jobs_total Jobs by lifecycle state.\n# TYPE served_jobs_total counter\n")
	states := make([]string, 0, len(m.jobsByState))
	for st := range m.jobsByState {
		states = append(states, string(st))
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Fprintf(w, "served_jobs_total{state=%q} %d\n", st, m.jobsByState[JobState(st)])
	}

	counter("served_trials_executed_total", "Trials actually run (cache hits execute none).", m.trialsExecuted)
	counter("served_records_streamed_total", "Records delivered to sinks, replays included.", m.recordsStreamed)
	counter("served_cache_lookups_total", "Campaign cache lookups.", m.cacheLookups)
	counter("served_cache_hits_total", "Campaign cache hits.", m.cacheHits)
	gauge("served_trials_per_second", "Executed-trial throughput over the uptime.",
		trialsPerSecond(m.trialsExecuted, m.uptimeSeconds))
}
