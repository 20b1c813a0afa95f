// Package service turns the scenario engine into a long-lived,
// cache-backed job service: submit a scenario.Spec (or a registered
// family at a scale), get back a job keyed by the spec's canonical hash,
// poll it, and fetch the memoized result.
//
// The manager deduplicates by construction: a job's identity IS its spec
// hash, so N concurrent submissions of the same spec share one queued
// job — and therefore exactly one engine run (singleflight without a
// second index). Finished jobs move into a bounded LRU; resubmitting a
// cached spec returns the done job immediately without re-simulating, and
// a new spec whose every cell is cached is done before its submit returns.
// The scenario engine is deterministic (same spec → bit-identical
// fingerprint), which is what makes memoization sound.
//
// Execution is cell-sharded: a job's spec is planned into (policy × point
// × repetition) cell jobs (scenario.NewPlan), each carrying a canonical
// cell hash. Cells already in the cell-granular LRU are served from cache;
// the misses are batched into shards and dispatched across the configured
// backends (the in-process pool, plus one remote backend per -peers
// entry), with failed shards retried on another backend. Because cell
// hashes ignore the spec's grid axes, two overlapping specs — a sweep and
// the same sweep with one extra point — share cells, and a resubmission
// with a small delta simulates only the delta.
//
// cmd/asymd wraps Manager.Handler in an HTTP daemon; see http.go for the
// wire API (including the worker-facing POST /v1/shards).
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynasym/internal/obs"
	"dynasym/internal/scenario"
	"dynasym/internal/trace"
	"dynasym/internal/xrand"
)

// State is a job's lifecycle position.
type State int32

const (
	// StateQueued: accepted, waiting for a worker slot.
	StateQueued State = iota
	// StateRunning: a worker is executing the scenario grid.
	StateRunning
	// StateDone: finished successfully; the result is set.
	StateDone
	// StateFailed: the engine returned an error (kept, like successes, so
	// identical bad specs fail fast from cache).
	StateFailed
)

// String names the state for the wire API.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Job is one submitted spec moving through the lifecycle. Fields written
// after creation are guarded by the manager lock or atomics; read them
// through Snapshot, Result or Wait.
type Job struct {
	// Hash is the spec's canonical hash — the job ID and cache key.
	Hash string
	// Spec is the parsed, submitted spec (without execution-only fields).
	Spec scenario.Spec

	state   atomic.Int32
	done    chan struct{} // closed on completion
	created time.Time
	// planned is when submit finished the plan; plan is the job's grid, read
	// by execute and dropped when the job finishes.
	planned time.Time
	plan    *scenario.Plan

	// reqID is the propagated request ID of the submission that created
	// the job (X-Request-ID; generated when absent). Immutable.
	reqID string
	// spans holds the job's service-level trace while it is in flight;
	// on completion the manager moves it into the trace-retention LRU
	// and clears this pointer.
	spans atomic.Pointer[trace.SpanSet]

	cellsDone  atomic.Int64
	cellsTotal atomic.Int64
	// cellHits and cellMisses count this job's grid cells served from the
	// cell cache vs actually dispatched to a backend.
	cellHits   atomic.Int64
	cellMisses atomic.Int64
	// hits counts submissions served by this job after its first (in
	// flight or from cache) — the dedupe/cache-hit counter.
	hits atomic.Int64

	// Written once before the terminal state is stored, read only after
	// observing it: the atomic store orders these fields for every reader,
	// so a poller that saw "done" can always fetch the result.
	result            *scenario.Result
	fperr             error
	elapsed           time.Duration
	started, finished time.Time

	// doc is the GET /v1/results body of a done job (resultDocument), built
	// with the job; docErr is why there is none.
	doc    []byte
	docErr error
}

// State returns the current lifecycle state.
func (j *Job) State() State { return State(j.state.Load()) }

// Done returns a channel closed when the job reaches done or failed.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job completes or the context is cancelled.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Result returns the result, fingerprint and run duration of a completed
// job; it errors if the job failed or has not finished. It gates on the
// state, not on Done: the state is what Snapshot and the wire API report.
// The fingerprint is Result.Fingerprint, hashed per call from the cells'
// sealed digests.
func (j *Job) Result() (*scenario.Result, string, time.Duration, error) {
	if st := j.State(); st != StateDone && st != StateFailed {
		return nil, "", 0, fmt.Errorf("service: job %s is %s", j.Hash, st)
	}
	if j.fperr != nil {
		return nil, "", 0, j.fperr
	}
	return j.result, j.result.Fingerprint(), j.elapsed, nil
}

// Hits reports how many submissions this job absorbed beyond the first.
func (j *Job) Hits() int64 { return j.hits.Load() }

// Status is an exported snapshot of a job for the wire API.
type Status struct {
	ID         string  `json:"id"`
	State      string  `json:"state"`
	CellsDone  int64   `json:"cells_done"`
	CellsTotal int64   `json:"cells_total"`
	CellHits   int64   `json:"cell_hits"`
	CellMisses int64   `json:"cell_misses"`
	CacheHits  int64   `json:"cache_hits"`
	Error      string  `json:"error,omitempty"`
	CreatedAt  string  `json:"created_at"`
	RequestID  string  `json:"request_id,omitempty"`
	ElapsedSec float64 `json:"elapsed_sec,omitempty"`
	ResultURL  string  `json:"result_url,omitempty"`
	TraceURL   string  `json:"trace_url,omitempty"`
}

// Snapshot captures the job's current status.
func (j *Job) Snapshot() Status {
	st := Status{
		ID:         j.Hash,
		State:      j.State().String(),
		CellsDone:  j.cellsDone.Load(),
		CellsTotal: j.cellsTotal.Load(),
		CellHits:   j.cellHits.Load(),
		CellMisses: j.cellMisses.Load(),
		CacheHits:  j.hits.Load(),
		CreatedAt:  j.created.UTC().Format(time.RFC3339Nano),
		RequestID:  j.reqID,
		TraceURL:   "/v1/jobs/" + j.Hash + "/trace",
	}
	switch j.State() {
	case StateDone:
		st.ElapsedSec = j.elapsed.Seconds()
		st.ResultURL = "/v1/results/" + j.Hash
	case StateFailed:
		st.Error = j.fperr.Error()
	}
	return st
}

// Config sizes a Manager.
type Config struct {
	// Workers bounds concurrent cell simulations on the local backend
	// (default GOMAXPROCS).
	Workers int
	// CacheSize bounds the finished-job LRU (default 128 entries).
	CacheSize int
	// CellCacheSize bounds the cell-result LRU (default 4096 cells).
	CellCacheSize int
	// ShardSize bounds the cells per dispatched shard (default 16).
	ShardSize int
	// Peers lists base URLs of other asymd nodes to farm shards to
	// (cmd/asymd -peers). Each peer becomes a remote backend; the local
	// pool always remains the first backend.
	Peers []string
	// ShardTimeout bounds one remote shard attempt (default 10 minutes;
	// < 0 disables). Without it a wedged-but-connected peer would hang a
	// shard forever and failover could never trigger. It applies only to
	// non-local backends: the in-process pool cannot wedge, and long
	// paper-scale cells must not be killed mid-simulation.
	ShardTimeout time.Duration
	// ShardRetries is a shard's retry budget: the number of rounds over
	// the available backends before the shard — and with it the job —
	// fails (default 3; 1 restores the old single-pass behavior). With
	// more than one round, a transient blip on every peer no longer
	// permanently fails a job that a later pass could finish.
	ShardRetries int
	// RetryBackoff is the pause before the second round of a shard's
	// retry budget (default 100ms; < 0 disables). It doubles each round
	// and is jittered by ±50% so concurrent shards don't retry in
	// lockstep.
	RetryBackoff time.Duration
	// FailThreshold trips a peer's circuit breaker after this many
	// consecutive transport failures (default 3). See health.go.
	FailThreshold int
	// ProbeBackoff is how long a freshly tripped peer stays down before
	// one probe attempt is admitted (default 1s). Each failed probe
	// doubles it, up to ProbeMaxBackoff (default 1 minute); both are
	// jittered by ±50%.
	ProbeBackoff    time.Duration
	ProbeMaxBackoff time.Duration
	// TraceRetention bounds how many finished jobs keep their
	// service-level span timeline for GET /v1/jobs/{id}/trace, and how
	// many rendered cell sim traces are cached (default 64 each).
	TraceRetention int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.CellCacheSize <= 0 {
		c.CellCacheSize = 4096
	}
	if c.ShardSize <= 0 {
		c.ShardSize = 16
	}
	if c.ShardTimeout == 0 {
		c.ShardTimeout = 10 * time.Minute
	}
	if c.ShardRetries <= 0 {
		c.ShardRetries = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeBackoff <= 0 {
		c.ProbeBackoff = time.Second
	}
	if c.ProbeMaxBackoff <= 0 {
		c.ProbeMaxBackoff = time.Minute
	}
	if c.TraceRetention <= 0 {
		c.TraceRetention = 64
	}
	return c
}

// Manager owns the job table, the backends and the result caches.
type Manager struct {
	cfg Config
	sem chan struct{} // job admission slots (Workers); holds jobs in queued

	// local is the in-process backend; handles wraps it first, then one
	// remote backend per configured peer, each in a health-tracked
	// circuit breaker (health.go). Shards round-robin over the
	// admissible handles and fail over to the others.
	local   *localBackend
	handles []*backendHandle

	// now, sleep and rng are the fault-tolerance layer's time and
	// randomness sources, injectable so tests drive probe scheduling
	// with a fake clock and a fixed jitter stream.
	now   func() time.Time
	sleep func(context.Context, time.Duration) error
	rngMu sync.Mutex
	rng   *xrand.RNG

	// reg and mx are the node's metric registry (served at /metrics)
	// and the pre-registered service metric set.
	reg *obs.Registry
	mx  *serviceMetrics

	mu       sync.Mutex
	inflight map[string]*Job                // queued/running, by spec hash
	cache    *lruCache[*Job]                // done/failed jobs, by spec hash
	cells    *lruCache[scenario.RunMetrics] // finished cells, by cell hash
	// cellBytes is the summed SizeBytes of the cached cells (the
	// asymd_cell_cache_bytes gauge), kept by bankCells and cells.onDrop;
	// jobBytes the summed document length of the cached jobs
	// (asymd_job_cache_bytes), kept by execute and cache.onDrop.
	cellBytes int64
	jobBytes  int64
	pending   map[string]*pendingCell   // cells being simulated, by cell hash
	plans     *lruCache[*scenario.Plan] // memoized plans, by spec hash (shard API)
	traces    *lruCache[*trace.SpanSet] // finished job traces, by spec hash
	// simtraces caches rendered per-cell sim-time Chrome traces by cell
	// hash.
	simtraces *lruCache[[]byte]
	closed    bool

	wg sync.WaitGroup // running job goroutines
}

// NewManager builds a Manager.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	local := newLocalBackend(cfg.Workers)
	reg := obs.NewRegistry()
	mx := newServiceMetrics(reg, cfg.Workers)
	m := &Manager{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.Workers),
		local:    local,
		reg:      reg,
		mx:       mx,
		now:      time.Now,
		sleep:    sleepCtx,
		rng:      xrand.New(0x4ea1),
		inflight: make(map[string]*Job),
		cache:    newLRUCache[*Job](cfg.CacheSize),
		cells:    newLRUCache[scenario.RunMetrics](cfg.CellCacheSize),
		pending:  make(map[string]*pendingCell),
		plans:    newLRUCache[*scenario.Plan](planCacheSize),

		traces:    newLRUCache[*trace.SpanSet](cfg.TraceRetention),
		simtraces: newLRUCache[[]byte](cfg.TraceRetention),
	}
	m.cache.onDrop = func(j *Job) { m.jobBytes -= int64(len(j.doc)) }
	m.cells.onDrop = func(rm scenario.RunMetrics) { m.cellBytes -= rm.SizeBytes() }
	mx.poolWorkers.Set(int64(cfg.Workers))
	local.busy = mx.poolBusy
	local.runs = mx.cellRuns
	local.panics = mx.cellPanics
	local.runSec = mx.cellRunSec
	local.parallelism = mx.poolParallelism
	backends := []Backend{local}
	for _, peer := range cfg.Peers {
		backends = append(backends, NewRemoteBackend(peer))
	}
	m.setBackends(backends...)
	return m
}

// sleepCtx is the default Manager.sleep: a context-respecting pause.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit registers a spec for execution and returns its job. existing
// reports whether the submission was absorbed by an in-flight or cached
// job (no new engine run). A new spec is validated and planned up front,
// so a bad spec errors here, synchronously; a new job is returned done when
// the cell cache holds its every cell.
func (m *Manager) Submit(spec scenario.Spec) (job *Job, existing bool, err error) {
	return m.submit(spec, "")
}

// submit is Submit with the originating request ID attached (HTTP path);
// the ID rides the job into worker shard requests and log lines. A known
// spec is absorbed unvalidated; a new one is validated once, by its plan,
// before anything is registered, then completed here if the cell cache holds
// its every cell (no slot taken, no cell claimed) or queued with its plan.
func (m *Manager) submit(spec scenario.Spec, reqID string) (job *Job, existing bool, err error) {
	// Strip execution-only fields: the service owns observation, and the
	// hash ignores them anyway. Probe is stripped too — per-cell sim traces
	// are served on demand by re-execution (SimTrace), not by probing every
	// banked cell.
	spec.Probe = false
	spec.Progress = nil
	hash, err := spec.Hash()
	if err != nil {
		if verr := spec.Validate(); verr != nil {
			err = verr // it names the field
		}
		return nil, false, err
	}
	m.mu.Lock()
	j, ok, err := m.absorb(hash)
	m.mu.Unlock()
	if ok || err != nil {
		return j, ok, err
	}

	created := m.now()
	plan, err := m.planFor(hash, spec)
	if err != nil {
		return nil, false, err
	}
	j = &Job{Hash: hash, Spec: spec, done: make(chan struct{}), created: created, planned: m.now(), plan: plan, reqID: reqID}
	spans := trace.NewSpanSet(maxSpansPerJob)
	spans.Add(trace.Span{Name: "plan", Cat: "job", Lane: "job", End: j.planned.Sub(created)})
	j.spans.Store(spans)
	j.cellsTotal.Store(int64(len(plan.Cells)))

	m.mu.Lock()
	if prev, ok, err := m.absorb(hash); ok || err != nil { // registered while this one planned
		m.mu.Unlock()
		return prev, ok, err
	}
	m.mx.jobsSubmitted.Inc()
	m.inflight[hash] = j
	m.wg.Add(1)
	cached := m.takeCached(plan)
	m.mu.Unlock()
	if cached == nil {
		m.mx.jobsQueued.Inc()
		go m.execute(j, nil)
	} else {
		m.mx.jobsDoneAtSubmit.Inc()
		m.execute(j, cached)
	}
	return j, false, nil
}

// absorb returns the in-flight or cached job of a spec hash, counting the
// submission it absorbs; the caller holds m.mu.
func (m *Manager) absorb(hash string) (*Job, bool, error) {
	if m.closed {
		return nil, false, fmt.Errorf("service: manager is shut down")
	}
	j, ok := m.inflight[hash]
	if !ok {
		j, ok = m.cache.Get(hash)
	}
	if ok {
		m.mx.jobsSubmitted.Inc()
		m.mx.jobsAbsorbed.Inc()
		j.hits.Add(1)
	}
	return j, ok, nil
}

// takeCached returns the plan's cells from the cell cache, or nil if one is
// missing. It probes with Peek, so a miss leaves the LRU as it was; a hit
// makes the moves runJob's pass would. The caller holds m.mu.
func (m *Manager) takeCached(plan *scenario.Plan) map[string]scenario.RunMetrics {
	for _, c := range plan.Cells {
		if _, ok := m.cells.Peek(c.Hash); !ok {
			return nil
		}
	}
	cached, _ := m.takeCells(plan.Cells)
	return cached
}

// SubmitFamily resolves a registered scenario family at a scale (seed
// optionally overriding the family default) and submits it.
func (m *Manager) SubmitFamily(name string, scale float64, seed *uint64) (*Job, bool, error) {
	return m.submitFamily(name, scale, seed, "")
}

func (m *Manager) submitFamily(name string, scale float64, seed *uint64, reqID string) (*Job, bool, error) {
	f, ok := scenario.Lookup(name)
	if !ok {
		return nil, false, fmt.Errorf("service: unknown scenario family %q (known: %v)", name, scenario.Names())
	}
	spec := f.Spec(scale)
	if seed != nil {
		spec.Seed = *seed
	}
	return m.submit(spec, reqID)
}

// execute runs one job — serve cells from cache, dispatch the misses, merge —
// and publishes it. Admission slots bound executing jobs to Workers: excess
// submissions wait here, observably queued. A job submit took from the cell
// cache (cached set) runs on the submitting goroutine and takes no slot.
func (m *Manager) execute(j *Job, cached map[string]scenario.RunMetrics) {
	defer m.wg.Done()
	j.started = j.planned
	if cached == nil {
		m.sem <- struct{}{}
		defer func() { <-m.sem }()
		j.started = m.now()
		m.mx.jobsQueued.Dec()
		m.mx.jobsRunning.Inc()
	}
	j.state.Store(int32(StateRunning))
	m.mx.jobQueueSec.Observe(j.started.Sub(j.planned).Seconds())

	// Thread the job's tracer and request ID through the dispatch path:
	// backends record spans and remote shard POSTs carry the ID.
	spans := j.spans.Load()
	jt := newJobTrace(j.created, m.now, spans)
	jt.span(trace.Span{Name: "queued", Cat: "job", Lane: "job", Start: j.planned.Sub(j.created), End: j.started.Sub(j.created)})
	ctx := withJobTrace(withRequestID(context.Background(), j.reqID), jt)

	res, err := m.runJob(ctx, j, cached)
	j.finished = m.now()
	j.elapsed = j.finished.Sub(j.started)
	if cached == nil {
		m.mx.jobsRunning.Dec()
	}
	m.mx.jobRunSec.Observe(j.elapsed.Seconds())
	if err != nil {
		j.fperr = err
		j.state.Store(int32(StateFailed))
		m.mx.jobsFailed.Inc()
	} else {
		j.result = res
		j.doc, j.docErr = resultDocument(j.Hash, res)
		j.state.Store(int32(StateDone))
		m.mx.jobsDone.Inc()
	}

	m.mu.Lock()
	delete(m.inflight, j.Hash)
	m.jobBytes += int64(len(j.doc))
	m.mx.jobEvict.Add(int64(m.cache.Add(j.Hash, j)))
	m.mx.jobEntries.Set(int64(m.cache.Len()))
	m.mx.jobCacheBytes.Set(m.jobBytes) // an eviction took its document along
	// The finished trace moves into the retention LRU. Drops are surfaced
	// as a counter so a truncated timeline is visible in /metrics, not just
	// puzzling.
	m.traces.Add(j.Hash, spans)
	m.mx.traceEntries.Set(int64(m.traces.Len()))
	m.mx.traceSpansDropped.Add(spans.Dropped())
	j.spans.Store(nil)
	j.plan = nil
	m.mu.Unlock()
	close(j.done)
}

// resultDocument encodes the GET /v1/results body of a finished job: a pure
// function of the job hash (elapsed_sec lives on the status) and, carrying a
// digest where it once carried the fingerprint text, under 1 KB — the only
// reason execute may build it before "done" is published (ROADMAP, traps).
func resultDocument(hash string, res *scenario.Result) ([]byte, error) {
	labels := make([]string, len(res.Points))
	for i, pt := range res.Points {
		labels[i] = pt.Label
	}
	doc, err := json.Marshal(ResultResponse{
		Hash:        hash,
		Name:        res.Name,
		Topo:        res.Topo.String(),
		Policies:    res.Policies,
		Points:      labels,
		Throughputs: res.Throughputs(),
		Fingerprint: res.Fingerprint(),
	})
	if err != nil {
		return nil, fmt.Errorf("service: job %s: encode result: %w", hash, err)
	}
	return doc, nil
}

// JobTrace returns a job's service-level span timeline: the live set for
// an in-flight job, the retained one for a finished job.
func (m *Manager) JobTrace(hash string) (*trace.SpanSet, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.inflight[hash]; ok {
		if spans := j.spans.Load(); spans != nil {
			return spans, true
		}
	}
	return m.traces.Get(hash)
}

// ErrUnknownJob reports a job ID the manager does not know (evicted or
// never submitted); the HTTP layer maps it to 404.
var ErrUnknownJob = errors.New("unknown job (evicted or never submitted)")

// SimTrace renders the sim-time schedule trace of one cell of a job as
// Chrome-trace JSON: task slices plus queue-depth, ready-task, PTT-error
// and per-core-utilization counter lanes. The cell is re-executed locally
// with a private recorder and probe — cells are pure functions of the
// plan and the cell coordinates, so the rendered schedule is exactly the
// one behind the cell's canonical result even when the result itself was
// computed on a remote shard or served from cache. Rendered bytes are
// cached by cell hash.
func (m *Manager) SimTrace(id string, cell int) ([]byte, error) {
	j, ok := m.Job(id)
	if !ok {
		return nil, ErrUnknownJob
	}
	plan, err := m.planFor(j.Hash, j.Spec)
	if err != nil {
		return nil, err
	}
	if cell < 0 || cell >= len(plan.Cells) {
		return nil, fmt.Errorf("cell %d outside the %d-cell grid", cell, len(plan.Cells))
	}
	c := plan.Cells[cell]
	m.mu.Lock()
	b, ok := m.simtraces.Get(c.Hash)
	m.mu.Unlock()
	if ok {
		return b, nil
	}
	rm, rec, err := plan.RunCellTrace(c)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	b = buf.Bytes()
	m.mu.Lock()
	m.simtraces.Add(c.Hash, b)
	m.mx.simtraceEntries.Set(int64(m.simtraces.Len()))
	m.mu.Unlock()
	m.mx.simtraceRenders.Inc()
	_ = rm // the render is the product; the metrics were already banked
	return b, nil
}

// Registry exposes the node's metric registry (the /metrics content);
// callers may register their own series alongside the service's.
func (m *Manager) Registry() *obs.Registry { return m.reg }

// pendingCell is one cell currently being simulated by some job. Other
// jobs needing the same cell subscribe to done instead of re-simulating;
// rm/ok are written before done closes. ok=false means the owner
// abandoned the cell (its dispatch failed or was canceled) — subscribers
// fall back to dispatching it themselves.
type pendingCell struct {
	owner *Job
	done  chan struct{}
	rm    scenario.RunMetrics
	ok    bool
}

// planCacheSize bounds the memoized-plan LRU used by the shard API: a
// worker re-planning a 10k-cell grid per 16-cell shard request would
// hash the whole grid hundreds of times per job.
const planCacheSize = 64

// runJob assembles one job's result from cached cells, cells another job
// is already simulating (in-flight dedupe), and freshly dispatched cells.
// cached, when set, is every cell of the job, taken by submit: then there is
// nothing to subscribe to, claim or dispatch.
func (m *Manager) runJob(ctx context.Context, j *Job, cached map[string]scenario.RunMetrics) (*scenario.Result, error) {
	jt := jobTraceFrom(ctx)
	plan := j.plan

	// Dedupe the grid by cell hash (points with identical parameters under
	// different labels share one simulation). mult counts grid positions
	// per unique hash, so progress advances over plan cells, not unique
	// cells.
	mult := make(map[string]int64, len(plan.Cells))
	for _, c := range plan.Cells {
		mult[c.Hash]++
	}

	// One pass under the lock: serve the cell cache, subscribe to cells
	// some other job is already simulating, claim the rest.
	results := cached
	waits := make(map[scenario.CellJob]*pendingCell)
	var claimed []scenario.CellJob
	if results == nil {
		m.mu.Lock()
		var missing []scenario.CellJob
		results, missing = m.takeCells(plan.Cells)
		for _, c := range missing {
			if p, ok := m.pending[c.Hash]; ok {
				waits[c] = p
			} else {
				claimed = append(claimed, c)
				m.pending[c.Hash] = &pendingCell{owner: j, done: make(chan struct{})}
			}
		}
		m.mu.Unlock()
	}

	// Whatever happens below, claimed cells this job never resolved
	// (dispatch error, per-cell failure, early cancel) must be released
	// so subscribers fall back instead of waiting forever.
	defer func() {
		m.mu.Lock()
		var abandoned []*pendingCell
		for _, c := range claimed {
			if p, ok := m.pending[c.Hash]; ok && p.owner == j {
				delete(m.pending, c.Hash)
				abandoned = append(abandoned, p)
			}
		}
		m.mu.Unlock()
		for _, p := range abandoned {
			close(p.done)
		}
	}()

	hits := int64(0)
	for h := range results {
		hits += mult[h]
	}
	misses := int64(0)
	for _, c := range claimed {
		misses += mult[c.Hash]
	}
	m.mx.cellHits.Add(hits)
	m.mx.cellMisses.Add(misses)
	j.cellHits.Store(hits)
	j.cellMisses.Store(misses)
	j.cellsDone.Store(hits)
	onDone := func(c scenario.CellJob) { j.cellsDone.Add(mult[c.Hash]) }

	// Dispatch own claims first — subscribers may be waiting on them;
	// bankCells resolves each pending as its shard lands.
	if len(claimed) > 0 {
		dispT0 := jt.at()
		fresh, err := m.dispatch(ctx, plan, claimed, onDone)
		jt.span(trace.Span{Name: "dispatch", Cat: "job", Lane: "job",
			Start: dispT0, End: jt.at(),
			Args: map[string]string{"cells": fmt.Sprint(len(claimed))}})
		if err != nil {
			return nil, err
		}
		for h, rm := range fresh {
			results[h] = rm
		}
	}

	// Collect subscribed cells. A cell whose owner abandoned it falls
	// back to a second dispatch by this job (duplicating work only in
	// that failure path).
	var fallback []scenario.CellJob
	if len(waits) > 0 {
		waitT0 := jt.at()
		for c, p := range waits {
			<-p.done
			if p.ok {
				results[c.Hash] = p.rm
				m.mx.cellHits.Add(mult[c.Hash])
				j.cellHits.Add(mult[c.Hash])
				onDone(c)
			} else {
				fallback = append(fallback, c)
			}
		}
		jt.span(trace.Span{Name: "await-shared-cells", Cat: "job", Lane: "job",
			Start: waitT0, End: jt.at(),
			Args: map[string]string{"cells": fmt.Sprint(len(waits))}})
	}
	if len(fallback) > 0 {
		for _, c := range fallback {
			m.mx.cellMisses.Add(mult[c.Hash])
			j.cellMisses.Add(mult[c.Hash])
		}
		dispT0 := jt.at()
		fresh, err := m.dispatch(ctx, plan, fallback, onDone)
		jt.span(trace.Span{Name: "dispatch-fallback", Cat: "job", Lane: "job",
			Start: dispT0, End: jt.at()})
		if err != nil {
			return nil, err
		}
		for h, rm := range fresh {
			results[h] = rm
		}
	}

	mergeT0 := jt.at()
	res, err := scenario.Merge(plan, results)
	if err != nil {
		return nil, err
	}
	jt.span(trace.Span{Name: "merge", Cat: "merge", Lane: "job", Start: mergeT0, End: jt.at()})
	j.cellsDone.Store(int64(len(plan.Cells)))
	return res, nil
}

// dispatch batches cells into shards and runs them concurrently
// (round-robin over the backends, failing over to the others), calling
// onDone per completed cell. Successful cells enter the cell cache as
// their shard lands — not when the whole dispatch finishes — so a job
// that later fails still banks its finished cells, and a concurrent
// overlapping job starts hitting them as early as possible. A
// deterministic per-cell engine error fails the whole dispatch, like a
// failed cell fails a monolithic Run — and cancels the remaining shards:
// a doomed job must not keep simulating its grid.
func (m *Manager) dispatch(ctx context.Context, plan *scenario.Plan, cells []scenario.CellJob, onDone func(scenario.CellJob)) (map[string]scenario.RunMetrics, error) {
	var shards [][]scenario.CellJob
	for i := 0; i < len(cells); i += m.cfg.ShardSize {
		shards = append(shards, cells[i:min(i+m.cfg.ShardSize, len(cells))])
	}
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Bound in-flight shards: enough to keep every backend's pool full
	// (Workers/ShardSize shards saturate the local pool; assume peers are
	// comparably sized), without a goroutine per shard of a huge grid.
	inflight := len(m.handles) * max(1, (m.cfg.Workers+m.cfg.ShardSize-1)/m.cfg.ShardSize)
	gate := make(chan struct{}, inflight)
	out := make(map[string]scenario.RunMetrics, len(cells))
	var (
		outMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	for si, shard := range shards {
		outMu.Lock()
		stop := firstErr != nil
		outMu.Unlock()
		if stop {
			break
		}
		gate <- struct{}{}
		wg.Add(1)
		go func(si int, shard []scenario.CellJob) {
			defer wg.Done()
			defer func() { <-gate }()
			crs, err := m.runShard(dctx, si, plan, shard)
			if err == nil {
				m.bankCells(crs)
			}
			outMu.Lock()
			defer outMu.Unlock()
			if err != nil {
				fail(err)
				return
			}
			for i, cr := range crs {
				if cr.Err != nil {
					fail(fmt.Errorf("scenario %q: %s: %w", plan.Spec.Name, plan.CellLabel(shard[i]), cr.Err))
					continue
				}
				out[cr.Hash] = cr.Metrics
				onDone(shard[i])
			}
		}(si, shard)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// planFor returns a memoized plan for the spec. A grid is hashed once per
// spec, not once per shard request: without this, a worker serving a
// 10k-cell grid in 16-cell shards would re-derive all 10k cell hashes
// hundreds of times. Plans are immutable after construction, so sharing
// one across concurrent shard requests is safe (RunCellState already runs
// concurrently against a single plan).
func (m *Manager) planFor(hash string, spec scenario.Spec) (*scenario.Plan, error) {
	m.mu.Lock()
	plan, ok := m.plans.Get(hash)
	m.mu.Unlock()
	if ok {
		return plan, nil
	}
	plan, err := scenario.NewPlan(spec)
	if err != nil {
		return nil, err
	}
	// Planning is what files workload variants in the compiled cache.
	m.mx.compiledEntries.Set(int64(scenario.CompiledCacheLen()))
	m.mu.Lock()
	m.plans.Add(hash, plan)
	m.mu.Unlock()
	return plan, nil
}

// takeCells is the read side of the cell-cache protocol (runJob's pass,
// takeCached, the worker shard path), under m.mu: the cached metrics by hash,
// taken with Get in input order, and the distinct uncached cells in input
// order. runJob then subscribes to the missing cells another job simulates
// (m.pending); the shard path must never do that: two mutually peered nodes,
// each owning a cell the other's shard asked for, would wait on each other
// forever.
func (m *Manager) takeCells(cells []scenario.CellJob) (cached map[string]scenario.RunMetrics, missing []scenario.CellJob) {
	cached = make(map[string]scenario.RunMetrics, len(cells))
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		if seen[c.Hash] {
			continue
		}
		seen[c.Hash] = true
		if rm, ok := m.cells.Get(c.Hash); ok {
			cached[c.Hash] = rm
		} else {
			missing = append(missing, c)
		}
	}
	return cached, missing
}

// bankCells is the write side of the cell-cache protocol: successful
// results enter the cache, and any job subscribed to the cell is resolved
// immediately — waiters unblock as shards land, not when the owning job
// finishes. Failed cells enter neither.
func (m *Manager) bankCells(crs []CellResult) {
	m.mu.Lock()
	var resolved []*pendingCell
	var fresh []scenario.RunMetrics
	evicted := int64(0)
	for _, cr := range crs {
		if cr.Err != nil {
			continue
		}
		// A cell entering the cache for the first time reports its
		// simulated scheduler activity (observed below, outside the lock);
		// re-banking the same cell — a retried shard re-landing its
		// partials — must not double-count.
		if _, seen := m.cells.Peek(cr.Hash); !seen {
			fresh = append(fresh, cr.Metrics)
		}
		m.cellBytes += cr.Metrics.SizeBytes()
		evicted += int64(m.cells.Add(cr.Hash, cr.Metrics))
		if p, ok := m.pending[cr.Hash]; ok {
			p.rm, p.ok = cr.Metrics, true
			delete(m.pending, cr.Hash)
			resolved = append(resolved, p)
		}
	}
	m.mx.cellEntries.Set(int64(m.cells.Len()))
	m.mx.cellCacheBytes.Set(m.cellBytes)
	m.mu.Unlock()
	m.mx.cellEvict.Add(evicted)
	for _, p := range resolved {
		close(p.done)
	}
	// Sim-level telemetry: every banked cell counts, whether it ran on the
	// local pool or landed from a remote shard.
	for _, rm := range fresh {
		m.mx.observeSim(rm)
	}
}

// runShard runs one shard to completion across the fleet: up to
// Config.ShardRetries rounds over the backends, each round starting at
// the shard's round-robin home, with exponential jittered backoff
// between rounds. Peers whose circuit breaker is open are skipped
// (health.go); the local pool is always admissible, so a fleet whose
// every remote peer is down degrades to local execution instead of
// failing the job. Remote attempts run under ShardTimeout so a wedged
// peer surfaces as a retryable error instead of hanging the job. A
// failed attempt may still have completed some cells (a cancelled pool
// or a crashed peer returns partial results); those are banked into the
// cell cache immediately and only the remainder is retried, so completed
// simulation work survives the failover. Attempt errors accumulate via
// errors.Join: an exhausted shard reports every cause, not just the last.
func (m *Manager) runShard(ctx context.Context, si int, plan *scenario.Plan, shard []scenario.CellJob) ([]CellResult, error) {
	n := len(m.handles)
	jt := jobTraceFrom(ctx)
	done := make(map[string]CellResult, len(shard))
	remaining := shard
	var attemptErrs []error
	for round := 0; round < m.cfg.ShardRetries && len(remaining) > 0; round++ {
		if round > 0 {
			m.mx.shardRetryRounds.Inc()
			if m.cfg.RetryBackoff > 0 {
				if err := m.sleep(ctx, m.jitterDur(m.cfg.RetryBackoff<<(round-1))); err != nil {
					return nil, err
				}
			}
		}
		for attempt := 0; attempt < n && len(remaining) > 0; attempt++ {
			h := m.handles[(si+attempt)%n]
			if !m.admit(h) {
				continue
			}
			actx, cancel := ctx, context.CancelFunc(func() {})
			if _, isLocal := h.Backend.(*localBackend); !isLocal && m.cfg.ShardTimeout > 0 {
				actx, cancel = context.WithTimeout(ctx, m.cfg.ShardTimeout)
			}
			// The attempt gets a leased display lane on the backend's
			// track group; nested spans (local cell runs, the worker's
			// own timeline) attach under it via the context.
			lane, releaseLane := jt.lane(h.Name())
			actx = withTraceLane(actx, lane)
			attemptT0 := jt.at()
			attemptStart := m.now()
			crs, err := h.Execute(actx, plan, remaining)
			rtt := m.now().Sub(attemptStart)
			cancel()
			if err == nil && len(crs) != len(remaining) {
				err = fmt.Errorf("returned %d results for %d cells", len(crs), len(remaining))
				crs = nil
			}
			if jt != nil {
				outcome := "ok"
				if err != nil {
					outcome = "error: " + err.Error()
				}
				jt.span(trace.Span{
					Name: fmt.Sprintf("shard %d", si), Cat: "dispatch", Lane: lane,
					Start: attemptT0, End: jt.at(),
					Args: map[string]string{
						"backend": h.Name(),
						"round":   fmt.Sprint(round),
						"cells":   fmt.Sprint(len(remaining)),
						"outcome": outcome,
					},
				})
			}
			releaseLane()
			if err == nil {
				m.report(h, nil)
				h.rttSec.Observe(rtt.Seconds())
				for _, cr := range crs {
					done[cr.Hash] = cr
				}
				remaining = nil
				break
			}
			if ctx.Err() != nil {
				// The dispatch itself was cancelled — bank whatever cells
				// completed before the teardown (finished simulation work
				// must survive even a failing job), then abort without
				// blaming the peer.
				var partial []CellResult
				for _, cr := range crs {
					if cr.Hash != "" {
						partial = append(partial, cr)
					}
				}
				if len(partial) > 0 {
					m.bankCells(partial)
				}
				return nil, ctx.Err()
			}
			m.report(h, err)
			h.failures.Inc()
			m.mx.shardFailovers.Inc()
			attemptErrs = append(attemptErrs, fmt.Errorf("backend %s: %w", h.Name(), err))
			var partial []CellResult
			for _, cr := range crs {
				if cr.Hash != "" {
					partial = append(partial, cr)
					done[cr.Hash] = cr
				}
			}
			if len(partial) > 0 {
				m.bankCells(partial)
				rest := make([]scenario.CellJob, 0, len(remaining)-len(partial))
				for _, c := range remaining {
					if _, ok := done[c.Hash]; !ok {
						rest = append(rest, c)
					}
				}
				remaining = rest
			}
		}
	}
	if len(remaining) > 0 {
		joined := errors.Join(attemptErrs...)
		if joined == nil {
			joined = errors.New("every backend's circuit breaker is open")
		}
		return nil, fmt.Errorf("shard of %d cells failed after %d rounds over %d backends: %w",
			len(shard), m.cfg.ShardRetries, n, joined)
	}
	out := make([]CellResult, len(shard))
	for i, c := range shard {
		out[i] = done[c.Hash]
	}
	return out, nil
}

// Job looks a job up by hash, in flight or cached.
func (m *Manager) Job(hash string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.inflight[hash]; ok {
		return j, true
	}
	return m.cache.Get(hash)
}

// EngineRuns reports how many jobs the manager has executed to a terminal
// state — submissions minus dedupe and cache hits. Like every count below
// it reads the metric registry's counters, the ones /metrics serves.
func (m *Manager) EngineRuns() int64 { return m.mx.jobsDone.Value() + m.mx.jobsFailed.Value() }

// CellRuns reports how many cells the local backend has simulated (for
// its own jobs and for shards served to peers).
func (m *Manager) CellRuns() int64 { return m.mx.cellRuns.Value() }

// Jobs snapshots every known job — in flight first (newest submission
// first), then finished ones from most to least recently used — for the
// GET /v1/jobs listing.
func (m *Manager) Jobs() []Status {
	m.mu.Lock()
	inflight := make([]*Job, 0, len(m.inflight))
	for _, j := range m.inflight {
		inflight = append(inflight, j)
	}
	cached := make([]*Job, 0, m.cache.Len())
	for _, h := range m.cache.Keys() {
		if j, ok := m.cache.Peek(h); ok {
			cached = append(cached, j)
		}
	}
	m.mu.Unlock()
	sort.Slice(inflight, func(a, b int) bool {
		if !inflight[a].created.Equal(inflight[b].created) {
			return inflight[a].created.After(inflight[b].created)
		}
		return inflight[a].Hash < inflight[b].Hash
	})
	out := make([]Status, 0, len(inflight)+len(cached))
	for _, j := range inflight {
		out = append(out, j.Snapshot())
	}
	for _, j := range cached {
		out = append(out, j.Snapshot())
	}
	return out
}

// Stats summarizes the manager for the health endpoint.
type Stats struct {
	Workers       int      `json:"workers"`
	CacheSize     int      `json:"cache_size"`
	Cached        int      `json:"cached"`
	Inflight      int      `json:"inflight"`
	EngineRuns    int64    `json:"engine_runs"`
	CellCacheSize int      `json:"cell_cache_size"`
	CellsCached   int      `json:"cells_cached"`
	CellHits      int64    `json:"cell_hits"`
	CellMisses    int64    `json:"cell_misses"`
	CellRuns      int64    `json:"cell_runs"`
	Backends      []string `json:"backends"`
}

// Stats returns current counters.
func (m *Manager) Stats() Stats {
	backends := make([]string, len(m.handles))
	for i, h := range m.handles {
		backends[i] = h.Name()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Workers:       m.cfg.Workers,
		CacheSize:     m.cfg.CacheSize,
		Cached:        m.cache.Len(),
		Inflight:      len(m.inflight),
		EngineRuns:    m.EngineRuns(),
		CellCacheSize: m.cfg.CellCacheSize,
		CellsCached:   m.cells.Len(),
		CellHits:      m.mx.cellHits.Value(),
		CellMisses:    m.mx.cellMisses.Value(),
		CellRuns:      m.CellRuns(),
		Backends:      backends,
	}
}

// Shutdown stops accepting submissions and waits for in-flight jobs to
// finish, or for the context to expire.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	finished := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: shutdown: %w", ctx.Err())
	}
}
