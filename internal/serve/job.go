package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"opaquebench/internal/runner"
	"opaquebench/internal/suite"
)

// JobState is a job's lifecycle position. Transitions are strictly
// queued → running → one of the three terminal states; canceled can also be
// reached straight from queued (a DELETE before dispatch).
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// errCanceledByClient is the cancellation cause a DELETE injects, so the
// finalizer can tell a client cancel (→ canceled) from a failure (→ failed).
var errCanceledByClient = errors.New("serve: job canceled by client")

// Job is one submitted suite: the parsed spec, its scheduling position and
// its outcome. Mutable fields are guarded by the server mutex.
type Job struct {
	id       string
	specHash string
	suite    string
	priority int
	seq      int // submission order, the FIFO tiebreak within a priority
	spec     *suite.Spec
	dir      string

	state     JobState
	cancel    context.CancelCauseFunc
	submitted time.Time
	started   time.Time
	finished  time.Time
	budget    int
	err       error
	// campaigns accumulates per-campaign outcomes as they complete (cache
	// verdicts included); on success it is replaced by the final result's
	// spec-ordered slice.
	campaigns []suite.CampaignResult

	events *eventHub
}

// jobQueue is the prioritized FIFO: higher priority first, submission order
// within a priority. It implements container/heap.
type jobQueue []*Job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, j int) bool {
	if q[i].priority != q[j].priority {
		return q[i].priority > q[j].priority
	}
	return q[i].seq < q[j].seq
}
func (q jobQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(*Job)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}

// dispatch starts queued jobs while job slots are free. Caller holds s.mu.
func (s *Server) dispatch() {
	for !s.draining && s.runningJobs < s.slots && s.queue.Len() > 0 {
		j := heap.Pop(&s.queue).(*Job)
		if j.state != JobQueued {
			continue // canceled while queued
		}
		j.state = JobRunning
		j.started = s.now()
		// The cancel func is installed before the goroutine exists, so a
		// DELETE can never observe a running job it cannot cancel.
		ctx, cancel := context.WithCancelCause(context.Background())
		j.cancel = cancel
		s.runningJobs++
		s.wg.Add(1)
		go s.runJob(j, ctx)
	}
}

// runJob executes one suite job end to end: per-job context, progress
// fan-out, the suite run against the shared budget and cache, then
// finalization (state, metrics, dedupe index, next dispatch).
func (s *Server) runJob(j *Job, ctx context.Context) {
	defer s.wg.Done()
	defer j.cancel(nil)
	s.jobEvent(j, Event{Type: "started"})

	pump := &progressPump{s: s, j: j, chans: map[string]*runner.ProgressChan{}}
	var err error
	var res *suite.Result
	cache, err := s.jobCache()
	if err == nil {
		if err = os.MkdirAll(j.dir, 0o777); err == nil {
			res, err = suite.Run(ctx, j.spec, suite.Options{
				Cache:      cache,
				BaseDir:    j.dir,
				Budget:     s.budget,
				Progress:   pump.progress,
				OnCampaign: func(cr suite.CampaignResult) { s.noteCampaign(j, cr) },
			})
		}
	}
	pump.close()

	s.mu.Lock()
	if res != nil {
		j.campaigns = res.Campaigns
		j.budget = res.Budget
	}
	j.err = err
	switch {
	case err == nil:
		j.state = JobDone
	case errors.Is(context.Cause(ctx), errCanceledByClient):
		j.state = JobCanceled
	default:
		j.state = JobFailed
	}
	if j.state != JobDone && s.byHash[j.specHash] == j {
		// Failed and canceled jobs are not dedupe targets: a resubmission
		// of the same spec must run again.
		delete(s.byHash, j.specHash)
	}
	j.finished = s.now()
	state := j.state
	s.runningJobs--
	s.dispatch()
	s.mu.Unlock()

	final := Event{Type: string(state)}
	if err != nil {
		final.Error = err.Error()
	}
	s.jobEvent(j, final)
	j.events.close()
}

// noteCampaign records one finished campaign: counters for /metrics, the
// job's progressive campaign list, and a "campaign" event.
func (s *Server) noteCampaign(j *Job, cr suite.CampaignResult) {
	s.mu.Lock()
	s.trialsExecuted += int64(cr.Trials)
	s.recordsStreamed += int64(cr.Records)
	s.cacheLookups++
	if cr.Hit {
		s.cacheHits++
	}
	j.campaigns = append(j.campaigns, cr)
	s.mu.Unlock()

	ev := Event{Type: "campaign", Campaign: cr.Name, Verdict: cr.Verdict(), Trials: cr.Trials}
	if cr.Err != nil {
		ev.Error = cr.Err.Error()
	}
	s.jobEvent(j, ev)
}

// jobEvent stamps the clock on an event and appends it to the job's log.
func (s *Server) jobEvent(j *Job, e Event) {
	e.Time = s.now().UTC().Format(time.RFC3339)
	e.Job = j.id
	j.events.append(e)
}

// progressPump bridges the suite's per-campaign progress hook to the job's
// event log through one runner.ProgressChan per campaign: the suite side
// never blocks (Send drops oldest), and a drain goroutine per campaign
// coalesces updates into at most ~20 progress events plus the final one.
type progressPump struct {
	s *Server
	j *Job

	mu    sync.Mutex
	chans map[string]*runner.ProgressChan
	wg    sync.WaitGroup
}

// progress has the suite.Options.Progress shape.
func (p *progressPump) progress(campaign string, done, total int) {
	p.mu.Lock()
	pc := p.chans[campaign]
	if pc == nil {
		pc = runner.NewProgressChan(1)
		p.chans[campaign] = pc
		p.wg.Add(1)
		go p.drain(campaign, pc)
	}
	p.mu.Unlock()
	pc.Send(done, total)
}

// drain forwards coalesced updates into the event log.
func (p *progressPump) drain(campaign string, pc *runner.ProgressChan) {
	defer p.wg.Done()
	last := 0
	for u := range pc.Updates() {
		step := u.Total / 20
		if step < 1 {
			step = 1
		}
		if u.Done != u.Total && u.Done-last < step {
			continue
		}
		last = u.Done
		p.s.jobEvent(p.j, Event{Type: "progress", Campaign: campaign, Done: u.Done, Total: u.Total})
	}
}

// close shuts every campaign channel and waits for the drains, so no
// progress event can race the job's final event.
func (p *progressPump) close() {
	p.mu.Lock()
	for _, pc := range p.chans {
		pc.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// jobDir is the per-job output directory: every campaign output path of the
// spec resolves under it.
func (s *Server) jobDir(id string) string {
	return filepath.Join(s.dataDir, "jobs", id)
}

// newJobID mints the next sequential job id. Caller holds s.mu.
func (s *Server) newJobID() string {
	s.nextID++
	return fmt.Sprintf("j%d", s.nextID)
}
