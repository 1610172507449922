package main

// The job manager: a bounded queue feeding a fixed worker pool. Each
// worker owns a private cache of reuse contexts (the PR-3 zero-rebuild
// layer), keyed by the spec fingerprint, so a stream of jobs that vary
// only in seed or channel re-runs on already-built graph + engine +
// protocol stacks. Job progress flows out through the engine's
// RoundObserver (and the adaptive layer's OnEpoch hook) as an event
// history with live subscribers — the SSE endpoint's source of truth.

import (
	"cmp"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"radiocast/internal/adapt"
	"radiocast/internal/geo"
	"radiocast/internal/graph"
	"radiocast/internal/harness"
	"radiocast/internal/obs"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
)

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// maxEventHistory caps a job's retained event list; older round events
// are dropped first (SSE replay starts from what is kept).
const maxEventHistory = 4096

// maxFinishedJobs caps how many finished (done or failed) jobs the
// index keeps. Past it the oldest finished job is dropped, and its id
// answers 404; queued and running jobs are never dropped. A variable
// only so tests can lower it.
var maxFinishedJobs = 1024

// maxPoolContexts caps one worker's reuse-context cache. Contexts hold
// full protocol stacks, so an unbounded cache is a memory leak shaped
// like a feature; on overflow the cache is dropped wholesale and
// rebuilt by demand.
const maxPoolContexts = 8

// Event is one progress record, rendered verbatim as SSE data.
type Event struct {
	Seq   int64  `json:"seq"`
	Type  string `json:"type"` // state | round | epoch | done
	State string `json:"state,omitempty"`
	// Round progress (cumulative engine counters at that round).
	Round      int64 `json:"round,omitempty"`
	Deliveries int64 `json:"deliveries,omitempty"`
	Dropped    int64 `json:"dropped,omitempty"`
	Jammed     int64 `json:"jammed,omitempty"`
	Frontier   int64 `json:"frontier,omitempty"`
	// Epoch progress (adaptive jobs).
	Epoch       int   `json:"epoch,omitempty"`
	EpochRounds int64 `json:"epoch_rounds,omitempty"`
	Covered     int   `json:"covered,omitempty"`
	EpochDone   bool  `json:"epoch_done,omitempty"`
	// Result rides the terminal done/failed event.
	Result *JobResult `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// JobResult is the terminal outcome of a job.
type JobResult struct {
	Rounds        int64   `json:"rounds"`
	Completed     bool    `json:"completed"`
	Epochs        int     `json:"epochs,omitempty"`
	Covered       int     `json:"covered,omitempty"`
	Transmissions int64   `json:"transmissions"`
	Deliveries    int64   `json:"deliveries"`
	CollisionObs  int64   `json:"collision_obs"`
	Dropped       int64   `json:"dropped"`
	Jammed        int64   `json:"jammed"`
	BusyRounds    int64   `json:"busy_rounds"`
	SilentRounds  int64   `json:"silent_rounds"`
	MaxFrontier   int64   `json:"max_frontier"`
	Utilization   float64 `json:"utilization"`
	WallMicros    int64   `json:"wall_us"`
}

// resultFrom folds engine counters into the wire result.
func resultFrom(rounds int64, completed bool, st radio.Stats, epochs, covered int, wall time.Duration) *JobResult {
	return &JobResult{
		Rounds:        rounds,
		Completed:     completed,
		Epochs:        epochs,
		Covered:       covered,
		Transmissions: st.Transmissions,
		Deliveries:    st.Deliveries,
		CollisionObs:  st.CollisionObs,
		Dropped:       st.Dropped,
		Jammed:        st.Jammed,
		BusyRounds:    st.BusyRounds,
		SilentRounds:  st.SilentRounds,
		MaxFrontier:   st.MaxFrontier,
		Utilization:   st.Utilization(),
		WallMicros:    wall.Microseconds(),
	}
}

// Job is one submitted run and its progress history.
type Job struct {
	ID      string    `json:"id"`
	Spec    JobSpec   `json:"spec"`
	Created time.Time `json:"created"`

	num      int64 // submission order: 1 for the daemon's first job
	mu       sync.Mutex
	state    string
	err      string
	result   *JobResult
	started  time.Time
	finished time.Time
	events   []Event
	seq      int64
	subs     map[int]chan Event
	nextSub  int
}

// JobStatus is the GET /v1/jobs/{id} response body.
type JobStatus struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Spec      JobSpec    `json:"spec"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
	EventsLen int        `json:"events"`
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		State:     j.state,
		Spec:      j.Spec,
		Created:   j.Created,
		Error:     j.err,
		Result:    j.result,
		EventsLen: len(j.events),
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// publish appends ev to the history and fans it out to subscribers.
// Slow subscribers lose intermediate events (their channel is
// buffered); terminal delivery is guaranteed by closeSubs.
func (j *Job) publish(ev Event) {
	j.mu.Lock()
	j.seq++
	ev.Seq = j.seq
	if len(j.events) >= maxEventHistory {
		// Drop the oldest ROUND event; state/epoch/done milestones stay.
		dropped := false
		for i, old := range j.events {
			if old.Type == "round" {
				j.events = append(j.events[:i], j.events[i+1:]...)
				dropped = true
				break
			}
		}
		if !dropped {
			j.events = j.events[1:]
		}
	}
	j.events = append(j.events, ev)
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// subscribe returns the replay history plus a live channel; cancel
// detaches. The channel is closed when the job reaches a terminal
// state, so SSE writers terminate naturally.
func (j *Job) subscribe() (replay []Event, ch chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]Event(nil), j.events...)
	if j.state == StateDone || j.state == StateFailed {
		return replay, nil, func() {}
	}
	ch = make(chan Event, 256)
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	return replay, ch, func() {
		j.mu.Lock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
		}
		j.mu.Unlock()
	}
}

// closeSubs ends every live subscription (job reached terminal state).
func (j *Job) closeSubs() {
	j.mu.Lock()
	for id, ch := range j.subs {
		close(ch)
		delete(j.subs, id)
	}
	j.mu.Unlock()
}

// setState transitions the job and publishes the milestone.
func (j *Job) setState(state string) {
	j.mu.Lock()
	j.state = state
	switch state {
	case StateRunning:
		j.started = time.Now()
	case StateDone, StateFailed:
		j.finished = time.Now()
	}
	j.mu.Unlock()
	j.publish(Event{Type: "state", State: state})
}

// Manager owns the queue, the workers, and the job index.
type Manager struct {
	log     *slog.Logger
	metrics *obs.Registry

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // ids of finished jobs still indexed, oldest first
	next     int64

	queue  chan *Job
	wg     sync.WaitGroup
	closed atomic.Bool

	queued  *obs.Gauge
	running *obs.Gauge
	wall    *obs.Histogram
}

// NewManager starts workers goroutines draining a queueDepth-bounded
// queue.
func NewManager(workers, queueDepth int, lg *slog.Logger, reg *obs.Registry) *Manager {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 64
	}
	m := &Manager{
		log:     lg,
		metrics: reg,
		jobs:    map[string]*Job{},
		queue:   make(chan *Job, queueDepth),
		queued:  reg.Gauge("radiocastd_jobs_queued", "jobs waiting for a worker"),
		running: reg.Gauge("radiocastd_jobs_running", "jobs executing now"),
		wall:    reg.Histogram("radiocastd_job_wall_seconds", "job wall time", obs.DefTimeBuckets),
	}
	for w := 0; w < workers; w++ {
		m.wg.Add(1)
		go m.worker(w)
	}
	return m
}

// Shutdown stops accepting jobs and waits for in-flight ones.
func (m *Manager) Shutdown() {
	if m.closed.CompareAndSwap(false, true) {
		close(m.queue)
	}
	m.wg.Wait()
}

// Submit validates, registers, and enqueues a job. A full queue is an
// immediate error (the caller maps it to 503), not a blocked handler.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, &specError{err}
	}
	if m.closed.Load() {
		return nil, fmt.Errorf("shutting down")
	}
	m.mu.Lock()
	m.next++
	job := &Job{
		ID:      fmt.Sprintf("j%06d", m.next),
		num:     m.next,
		Spec:    spec,
		Created: time.Now(),
		state:   StateQueued,
		subs:    map[int]chan Event{},
	}
	m.jobs[job.ID] = job
	m.mu.Unlock()
	select {
	case m.queue <- job:
	default:
		m.mu.Lock()
		delete(m.jobs, job.ID)
		m.mu.Unlock()
		return nil, fmt.Errorf("job queue full (%d deep)", cap(m.queue))
	}
	m.metrics.Counter("radiocastd_jobs_submitted_total", "jobs accepted",
		obs.L("protocol", spec.Protocol)).Inc()
	m.queued.Inc()
	m.log.Info(obs.EventJobStart, "job", job.ID, "protocol", spec.Protocol,
		"graph", spec.Graph.Kind, "seed", spec.Seed)
	return job, nil
}

// specError marks validation failures (mapped to 400, not 500).
type specError struct{ error }

// Get looks a job up by id.
func (m *Manager) Get(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// Jobs lists the indexed jobs — every queued or running job and the
// newest maxFinishedJobs finished ones — oldest first, in submission
// order.
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	// By number, not by id: "j%06d" ids stop sorting past j999999.
	slices.SortFunc(jobs, func(a, b *Job) int { return cmp.Compare(a.num, b.num) })
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	return out
}

// pooledCtx is one cached reuse context: a built graph plus a run
// closure over the PR-3 Reset/Reseed layer.
type pooledCtx struct {
	g *graph.Graph
	// run executes one seeded job on the context, returning rounds,
	// completion, engine counters, epochs (adaptive jobs), and coverage.
	run func(job *Job, ch radio.Channel, o obs.RoundObserver, stride int64) (int64, bool, radio.Stats, int, int, error)
}

// worker drains the queue with a private context cache.
func (m *Manager) worker(id int) {
	defer m.wg.Done()
	pool := map[string]*pooledCtx{}
	hits := m.metrics.Counter("radiocastd_pool_hits_total", "jobs served by a cached reuse context")
	misses := m.metrics.Counter("radiocastd_pool_misses_total", "jobs that built a fresh context")
	for job := range m.queue {
		m.queued.Dec()
		m.running.Inc()
		job.setState(StateRunning)
		start := time.Now()

		fp := job.Spec.fingerprint()
		ctx, ok := pool[fp]
		var err error
		if ok {
			hits.Inc()
		} else {
			misses.Inc()
			ctx, err = m.buildCtx(&job.Spec)
			if err == nil {
				if len(pool) >= maxPoolContexts {
					pool = map[string]*pooledCtx{}
				}
				pool[fp] = ctx
			}
		}

		var res *JobResult
		if err == nil {
			res, err = m.execute(job, ctx)
		}
		wall := time.Since(start)
		m.wall.Observe(wall.Seconds())
		m.running.Dec()
		m.retire(job)
		if err != nil {
			job.mu.Lock()
			job.err = err.Error()
			job.mu.Unlock()
			job.publish(Event{Type: "failed", Error: err.Error()})
			job.setState(StateFailed)
			m.metrics.Counter("radiocastd_jobs_completed_total", "jobs finished",
				obs.L("status", "failed")).Inc()
			m.log.Warn(obs.EventJobDone, "job", job.ID, "state", StateFailed, "err", err.Error())
		} else {
			res.WallMicros = wall.Microseconds()
			job.mu.Lock()
			job.result = res
			job.mu.Unlock()
			job.publish(Event{Type: "done", Result: res})
			job.setState(StateDone)
			m.metrics.Counter("radiocastd_jobs_completed_total", "jobs finished",
				obs.L("status", "done")).Inc()
			m.countEngine(job.Spec.Protocol, res)
			m.log.Info(obs.EventJobDone, "job", job.ID, "state", StateDone,
				"rounds", res.Rounds, "completed", res.Completed, "wall_us", res.WallMicros)
		}
		job.closeSubs()
	}
}

// retire records job as finished and drops the oldest finished jobs
// past maxFinishedJobs. The worker calls it before publishing the
// terminal state, so a client that sees a job finish already sees the
// index trimmed.
func (m *Manager) retire(job *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = append(m.finished, job.ID)
	for len(m.finished) > maxFinishedJobs {
		delete(m.jobs, m.finished[0])
		m.finished = m.finished[1:]
	}
}

// countEngine folds a finished job's engine counters into the
// per-protocol totals.
func (m *Manager) countEngine(protocol string, res *JobResult) {
	p := obs.L("protocol", protocol)
	m.metrics.Counter("radiocastd_engine_rounds_total", "simulated rounds", p).Add(res.Rounds)
	m.metrics.Counter("radiocastd_engine_deliveries_total", "successful receptions", p).Add(res.Deliveries)
	m.metrics.Counter("radiocastd_engine_dropped_total", "channel-erased deliveries", p).Add(res.Dropped)
	m.metrics.Counter("radiocastd_engine_jammed_total", "channel-altered observations", p).Add(res.Jammed)
}

// execute runs one job on its context, wiring the round observer and
// recovering panics into job failures.
func (m *Manager) execute(job *Job, ctx *pooledCtx) (res *JobResult, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, fmt.Errorf("panic: %v", rec)
		}
	}()
	ch, err := job.Spec.buildChannel(ctx.g.N())
	if err != nil {
		return nil, &specError{err}
	}
	observer := obs.ObserverFunc(func(s obs.RoundSnapshot) {
		job.publish(Event{
			Type:       "round",
			Round:      s.Round,
			Deliveries: s.Deliveries,
			Dropped:    s.Dropped,
			Jammed:     s.Jammed,
			Frontier:   s.MaxFrontier,
		})
	})
	start := time.Now()
	rounds, completed, st, epochs, covered, err := ctx.run(job, ch, observer, job.Spec.stride())
	if err != nil {
		return nil, err
	}
	return resultFrom(rounds, completed, st, epochs, covered, time.Since(start)), nil
}

// buildCtx constructs the reuse context for a spec — the expensive,
// once-per-fingerprint step. The protocol table builds the stack; a
// dense stack's per-graph prep (eccentricity, flat GST and MMV
// schedule) is pooled with the graph, and its SoA protocol and engine
// are built per job.
func (m *Manager) buildCtx(spec *JobSpec) (*pooledCtx, error) {
	var g *graph.Graph
	var err error
	var lay *geo.Layout
	if spec.Mobility != nil {
		// Mobility runs on the raw disk graph (no connectivity stitching):
		// a re-layout rebuilds the disk from walked positions, and stitch
		// edges would have no geometric meaning after the first epoch.
		// Disconnection under churn is measured as coverage, not failure.
		lay = spec.Graph.geoLayout()
		g = geo.NewDisk(lay, spec.Graph.geoRadius()).Build()
	} else {
		g, err = spec.Graph.build()
	}
	if err != nil {
		return nil, &specError{err}
	}
	if int(spec.Source) >= g.N() {
		return nil, &specError{fmt.Errorf("source %d out of range [0,%d)", spec.Source, g.N())}
	}
	src := graph.NodeID(spec.Source)
	// validate() resolved the name and checked every capability the spec
	// asks for. The daemon always gives the wave its lossy-channel
	// horizon, since a job's channel is not part of the fingerprint.
	p, _ := harness.LookupProtocol(spec.Protocol)
	opts := harness.StackOpts{K: spec.k(), LossyHorizon: true}

	if spec.Adaptive == nil {
		s := p.Build(g, src, opts)
		return &pooledCtx{g: g, run: func(job *Job, ch radio.Channel, o obs.RoundObserver, stride int64) (int64, bool, radio.Stats, int, int, error) {
			if w, ok := s.(interface{ SetWorkers(int) }); ok {
				w.SetWorkers(job.Spec.Workers)
			}
			s.SetObserver(o, stride)
			defer s.SetObserver(nil, 0)
			rounds, ok, st := s.RunFrom(nil, ch, job.Spec.Seed, job.Spec.RoundLimit)
			return rounds, ok, st, 0, s.Coverage(), nil
		}}, nil
	}

	var mob MobilitySpec
	if spec.Mobility != nil {
		mob = *spec.Mobility
		opts.EpochLimit = mob.Period
	}
	a := p.NewAdaptive(g, src, opts, nil, spec.Seed)
	var initOff []int32
	var initEdges []radio.NodeID
	var wp *geo.Waypoint
	if spec.Mobility != nil {
		// validate() pinned a retopo-safe protocol: no schedule compiled
		// from the construction graph, so Retopo between epochs is legal.
		radius := spec.Graph.geoRadius()
		initOff, initEdges = g.CSR()
		a.SetRelayout(func(epoch int) {
			wp.Advance(int(mob.Period))
			off, edges := geo.NewDisk(lay, radius).Build().CSR()
			a.Retopo(off, edges)
		})
	}
	maxEpochs := spec.Adaptive.MaxEpochs
	return &pooledCtx{g: g, run: func(job *Job, ch radio.Channel, o obs.RoundObserver, stride int64) (int64, bool, radio.Stats, int, int, error) {
		if spec.Mobility != nil {
			// The walk mutates the pooled layout in place, so every job
			// rewinds it to the deterministic initial point set and Retopos
			// the runner back to the initial topology before walking again.
			fresh := spec.Graph.geoLayout()
			copy(lay.X, fresh.X)
			copy(lay.Y, fresh.Y)
			wp = geo.NewWaypoint(lay, mob.Speed, rng.Mix(job.Spec.Seed, 0x3ab7))
			a.Retopo(initOff, initEdges)
		}
		a.Reseed(job.Spec.Seed)
		a.SetChannelFactory(harness.EpochChannel(ch))
		a.SetObserver(o, stride)
		defer a.SetObserver(nil, 0)
		out := adapt.Run(a, adapt.Policy{
			MaxEpochs:  maxEpochs,
			EpochLimit: mob.Period,
			MaxRounds:  job.Spec.RoundLimit,
			OnEpoch: func(epoch int, rounds int64, covered int, done bool) {
				job.publish(Event{Type: "epoch", Epoch: epoch,
					EpochRounds: rounds, Covered: covered, EpochDone: done})
			},
		})
		return out.Rounds, out.Completed, out.Stats, out.Epochs, out.Covered, nil
	}}, nil
}
