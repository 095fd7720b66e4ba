package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"nocsprint/internal/ckpt"
	"nocsprint/internal/core"
	"nocsprint/internal/obs"
)

// RunFunc computes one job's result. The sweep-level context, abort
// context, journal, and telemetry recorder arrive threaded through sim;
// implementations must honour sim.Ctx for graceful stop and journal
// through sim.Journal if they want crash-safe resume. The default is
// RunExperiment; tests substitute stubs.
type RunFunc func(spec JobSpec, sim core.NetSimParams) (any, error)

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// StateDir is the root of the server's persistent state; jobs live in
	// StateDir/jobs/<id>/. Required.
	StateDir string
	// QueueCap bounds the number of queued (not yet running) jobs; further
	// submissions are shed with 429 + Retry-After instead of queuing
	// unboundedly. Default 16. Jobs recovered from a previous process do
	// not count against the cap — recovery never sheds work that was
	// already admitted.
	QueueCap int
	// Concurrency is the number of jobs executed simultaneously (each job
	// fans its own points across sweep workers). Default 1.
	Concurrency int
	// DefaultTimeout applies to jobs that do not set their own deadline.
	// Zero means no deadline.
	DefaultTimeout time.Duration
	// AbortGrace is how long after a job's deadline the graceful stop is
	// escalated to a point-level abort (stop mid-cycle-loop). Default 30s.
	AbortGrace time.Duration
	// RetryAfter is the hint sent with shed submissions. Default 5s.
	RetryAfter time.Duration
	// MaxBodyBytes bounds a submission body. Default 1 MiB.
	MaxBodyBytes int64
	// Run substitutes the experiment dispatch (tests). Nil = RunExperiment.
	Run RunFunc
	// Logf receives operational log lines. Nil = discard.
	Logf func(format string, args ...any)
}

// WithDefaults returns c with every zero field that has a default set to
// it; New applies it, and nocsprintd's flags take their defaults from it.
func (c Config) WithDefaults() Config {
	if c.QueueCap == 0 {
		c.QueueCap = 16
	}
	if c.Concurrency == 0 {
		c.Concurrency = 1
	}
	if c.AbortGrace == 0 {
		c.AbortGrace = 30 * time.Second
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = 5 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Run == nil {
		c.Run = RunExperiment
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the hardened sweep-job service: bounded queue, admission
// control, executor pool, persistent job table, and two-level shutdown.
type Server struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	queue    []string // FIFO of queued job IDs
	running  int
	stopping bool            // drain initiated: executors exit, admission closed
	metrics  MetricsSnapshot // the counters; MetricsSnapshot fills in the gauges

	baseCtx    context.Context // parent of every job's sweep context; cancelled on Drain
	cancelBase context.CancelFunc
	hardCtx    context.Context // parent of every job's abort context; cancelled on Abort
	cancelHard context.CancelFunc

	wg sync.WaitGroup
}

// New opens (or creates) the state directory, recovers every persisted job
// — incomplete jobs re-enter the queue and will resume from their
// checkpoint journals — and starts the executor pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.WithDefaults()
	if cfg.StateDir == "" {
		return nil, errors.New("serve: Config.StateDir is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.StateDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating state dir: %w", err)
	}
	s := &Server{
		cfg:  cfg,
		jobs: make(map[string]*Job),
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.hardCtx, s.cancelHard = context.WithCancel(context.Background())
	if err := s.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Concurrency; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s, nil
}

// recover rebuilds the job table from StateDir/jobs and writes nothing.
// Every job that had not finished when the previous process died is
// re-queued (oldest first); its journal makes the rerun resume rather than
// recompute.
func (s *Server) recover() error {
	root := filepath.Join(s.cfg.StateDir, "jobs")
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("serve: reading job dirs: %w", err)
	}
	var requeue []*Job
	for _, e := range entries {
		if !e.IsDir() || !jobIDPattern.MatchString(e.Name()) {
			continue
		}
		dir := filepath.Join(root, e.Name())
		// Sweep debris a kill -9 left mid-snapshot before reading anything.
		if _, err := ckpt.RemoveOrphanTemps(dir); err != nil {
			s.cfg.Logf("serve: job %s: %v", e.Name(), err)
		}
		var job Job
		if err := ckpt.ReadSnapshot(filepath.Join(dir, "job.json"), &job); err != nil {
			s.cfg.Logf("serve: skipping unreadable job %s: %v", e.Name(), err)
			continue
		}
		if job.ID != e.Name() {
			s.cfg.Logf("serve: skipping job dir %s: record claims ID %s", e.Name(), job.ID)
			continue
		}
		// A non-terminal record says queued; older daemons also wrote
		// running, and wrote done records without their result (it lived
		// in a separate file). All of them rerun, without the old run's
		// times.
		if !job.State.Terminal() || job.State == StateDone && job.Result == nil {
			job.State, job.Started, job.Ended = StateQueued, nil, nil
			requeue = append(requeue, &job)
		}
		s.jobs[job.ID] = &job
	}
	sort.Slice(requeue, func(i, k int) bool {
		if !requeue[i].Created.Equal(requeue[k].Created) {
			return requeue[i].Created.Before(requeue[k].Created)
		}
		return requeue[i].ID < requeue[k].ID
	})
	for _, job := range requeue {
		s.queue = append(s.queue, job.ID)
		s.metrics.Recovered++ // no executor runs yet, so no lock
		s.cfg.Logf("serve: recovered job %s (%s), re-queued for resume", job.ID, job.Spec.Experiment)
	}
	return nil
}

var jobIDPattern = regexp.MustCompile(`^j[0-9a-f]{16}$`)

func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serve: generating job ID: %w", err)
	}
	return "j" + hex.EncodeToString(b[:]), nil
}

func (s *Server) jobDir(id string) string {
	return filepath.Join(s.cfg.StateDir, "jobs", id)
}

// persist writes the job's record atomically into the directory Submit
// created for it. Callers hold s.mu or own the job exclusively.
func (s *Server) persist(job *Job) error {
	return ckpt.WriteSnapshot(filepath.Join(s.jobDir(job.ID), "job.json"), job)
}

// Submit admits one job: validate happened at parse time, so this is the
// admission decision (queue bound, drain state), persistence, and enqueue.
// It returns ErrDraining when the server no longer admits work and
// ErrQueueFull when the queue is at capacity.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	id, err := newJobID()
	if err != nil {
		return nil, err
	}
	job := &Job{ID: id, Spec: spec, State: StateQueued, Created: time.Now().UTC()}

	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueCap {
		s.metrics.Shed++
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	// Persist before exposing: a job the client has seen accepted must
	// survive a crash. The write happens under the lock so the admission
	// decision and the durable record cannot disagree.
	err = os.Mkdir(s.jobDir(id), 0o755)
	if err == nil {
		err = s.persist(job)
	}
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.jobs[id] = job
	s.queue = append(s.queue, id)
	s.metrics.Admitted++
	s.cond.Signal()
	s.mu.Unlock()
	return job, nil
}

// Sentinel admission errors; the HTTP layer maps them to 503 and 429.
var (
	ErrDraining  = errors.New("serve: server is draining, not admitting jobs")
	ErrQueueFull = errors.New("serve: job queue is full")
)

// Job returns a point-in-time copy of one job.
func (s *Server) Job(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *job, true
}

// Jobs returns copies of every job, newest first.
func (s *Server) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, job := range s.jobs {
		out = append(out, *job)
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Created.Equal(out[k].Created) {
			return out[i].Created.After(out[k].Created)
		}
		return out[i].ID > out[k].ID
	})
	return out
}

// Cancel removes a queued job or asks a running one to stop gracefully
// (its in-flight points finish and are journaled, then the job is marked
// cancelled). Cancelling a terminal job is an error. A queued job's
// cancelled record is persisted before the job leaves the queue, so a
// failed write leaves it queued.
func (s *Server) Cancel(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return Job{}, ErrNoSuchJob
	}
	switch job.State {
	case StateQueued:
		now := time.Now().UTC()
		rec := *job
		rec.State, rec.Ended, rec.Error = StateCancelled, &now, "cancelled while queued"
		if err := s.persist(&rec); err != nil {
			return Job{}, err
		}
		*job = rec
		for i, qid := range s.queue {
			if qid == id {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.metrics.Cancelled++
	case StateRunning:
		job.cancelRequested = true
		if job.cancelRun != nil {
			job.cancelRun()
		}
	default:
		return *job, fmt.Errorf("%w: job %s is already %s", ErrJobTerminal, id, job.State)
	}
	return *job, nil
}

// Sentinel lookup/cancel errors; the HTTP layer maps them to 404 and 409.
var (
	ErrNoSuchJob   = errors.New("serve: no such job")
	ErrJobTerminal = errors.New("serve: job already finished")
)

// executor pulls queued jobs and runs them until drain.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.stopping {
			s.cond.Wait()
		}
		if s.stopping {
			s.mu.Unlock()
			return
		}
		id := s.queue[0]
		s.queue = s.queue[1:]
		job := s.jobs[id]
		// Not persisted: a restart re-queues a running job exactly as it
		// does the queued record on disk.
		now := time.Now().UTC()
		job.State, job.Started = StateRunning, &now
		s.running++
		s.mu.Unlock()

		s.runJob(job)

		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}
}

// runJob executes one job end to end: contexts, journal, telemetry, and
// the terminal-state transition.
func (s *Server) runJob(job *Job) {
	dir := s.jobDir(job.ID)

	// Two-level cancellation, exactly like the CLI: the sweep context stops
	// claiming new points (deadline, DELETE, drain); the abort context stops
	// in-flight points at cycle granularity (hard stop, or deadline + grace).
	runCtx, cancelRun := context.WithCancel(s.baseCtx)
	defer cancelRun()
	abortCtx := s.hardCtx
	timeout := job.Spec.Timeout.Std()
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancelT context.CancelFunc
		runCtx, cancelT = context.WithTimeout(runCtx, timeout)
		defer cancelT()
		hardened, cancelA := context.WithCancel(s.hardCtx)
		defer cancelA()
		escalate := time.AfterFunc(timeout+s.cfg.AbortGrace, cancelA)
		defer escalate.Stop()
		abortCtx = hardened
	}
	s.mu.Lock()
	job.cancelRun = cancelRun
	if job.cancelRequested { // DELETE raced the start of execution
		cancelRun()
	}
	s.mu.Unlock()

	// The journal makes the job crash-safe: reopen (resume) when a previous
	// attempt left one, otherwise start fresh. A corrupt journal is logged
	// and replaced — the job recomputes rather than failing forever.
	jpath := filepath.Join(dir, "sweep.journal")
	var journal *ckpt.Journal
	if _, statErr := os.Stat(jpath); statErr == nil {
		var err error
		if journal, err = ckpt.Open(jpath); err != nil {
			s.cfg.Logf("serve: job %s journal rejected (%v); starting fresh", job.ID, err)
			journal = nil
		} else {
			s.cfg.Logf("serve: job %s resuming with %d journaled point(s)", job.ID, journal.Len())
		}
	}
	if journal == nil {
		var err error
		if journal, err = ckpt.Create(jpath); err != nil {
			s.finish(job, nil, fmt.Errorf("creating journal: %w", err))
			return
		}
	}
	defer journal.Close()

	sim := core.NetSimParams{
		Workers: job.Spec.Workers,
		Check:   job.Spec.Check,
		Seed:    job.Spec.Seed,
		Ctx:     runCtx,
		Abort:   abortCtx,
		Journal: journal,
	}
	var rec *obs.Recorder
	if job.Spec.Obs {
		var err error
		rec, err = obs.NewRecorder(obs.Config{})
		if err != nil {
			s.finish(job, nil, fmt.Errorf("building telemetry recorder: %w", err))
			return
		}
		sim.Obs = rec
	}

	result, err := s.cfg.Run(job.Spec, sim)
	if rec != nil && len(rec.Collectors()) > 0 {
		if werr := rec.WriteFiles(filepath.Join(dir, "obs")); werr != nil {
			s.cfg.Logf("serve: job %s telemetry: %v", job.ID, werr)
		}
	}
	if err != nil {
		s.finish(job, nil, err)
		return
	}
	raw, merr := json.Marshal(result)
	if merr != nil {
		s.finish(job, nil, fmt.Errorf("encoding result: %w", merr))
		return
	}
	s.finish(job, raw, nil)
}

// finish applies a job's terminal transition (or re-queues it when a drain
// interrupted it) and persists the record, a done job's result with it.
func (s *Server) finish(job *Job, result json.RawMessage, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now().UTC()
	job.cancelRun = nil
	switch {
	case err == nil:
		job.State, job.Ended, job.Result = StateDone, &now, result
		job.Error = ""
		s.metrics.Done++
	case job.cancelRequested:
		job.State, job.Ended = StateCancelled, &now
		job.Error = fmt.Sprintf("cancelled: %v", err)
		s.metrics.Cancelled++
	case s.stopping && errors.Is(err, context.Canceled):
		// Drain interrupted the sweep: completed points are journaled, so
		// the job goes back to queued and the next process resumes it.
		job.State, job.Started = StateQueued, nil
		job.Error = ""
		s.cfg.Logf("serve: job %s checkpointed by drain, will resume on restart", job.ID)
	case errors.Is(err, context.DeadlineExceeded):
		job.State, job.Ended = StateFailed, &now
		job.Error = fmt.Sprintf("deadline exceeded: %v", err)
		s.metrics.Failed++
	default:
		job.State, job.Ended = StateFailed, &now
		job.Error = err.Error()
		s.metrics.Failed++
	}
	if perr := s.persist(job); perr != nil {
		s.cfg.Logf("serve: persisting job %s: %v", job.ID, perr)
	}
	if err != nil {
		s.cfg.Logf("serve: job %s -> %s: %v", job.ID, job.State, err)
	} else {
		s.cfg.Logf("serve: job %s -> done", job.ID)
	}
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopping
}

// Drain stops admission, cancels every running job's sweep context so
// in-flight points finish and are journaled (the jobs re-queue for the next
// process), and waits for the executors to exit. Queued jobs stay queued
// and persisted. Drain is idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.stopping = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancelBase()
	s.wg.Wait()
}

// Abort escalates a drain: the hard context stops in-flight points at
// cycle granularity. Aborted points are not journaled and recompute on the
// next run.
func (s *Server) Abort() {
	s.cancelHard()
}

// Close drains and releases the server.
func (s *Server) Close() {
	s.Drain()
	s.cancelHard()
}
