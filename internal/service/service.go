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
// cell hash that ignores the spec's grid axes, so a sweep and the same sweep
// with one extra point share cells. The cell LRU serves what it holds, each
// cell as its scenario.RunSummary (scalars and the digest of its metrics);
// the misses are batched into shards and dispatched across the backends (the
// in-process pool, plus one remote backend per -peers entry), a failed shard
// moving on to the next. A job owns its cells while it runs: two jobs in
// flight that share a cell, or a twin point (one point's parameters under a
// second label), each simulate it. That costs time, never a metric.
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
	"unsafe"

	"dynasym/internal/lru"
	"dynasym/internal/obs"
	"dynasym/internal/scenario"
	"dynasym/internal/trace"
	"dynasym/internal/xrand"
)

// State is a job's lifecycle position.
type State int32

const (
	// stateQueued: accepted, waiting for a worker slot.
	stateQueued State = iota
	// stateRunning: a worker is executing the scenario grid.
	stateRunning
	// stateDone: finished successfully; the result is set.
	stateDone
	// stateFailed: the engine returned an error (kept, like successes, so
	// identical bad specs fail fast from cache).
	stateFailed
)

// String names the state for the wire API.
func (s State) String() string {
	switch s {
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Job is one submitted spec moving through the lifecycle. Fields written
// after creation are guarded by the manager lock or atomics; read them
// through snapshot, Result or Wait.
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
	result            *scenario.Summary
	fperr             error
	elapsed           time.Duration
	started, finished time.Time

	// doc is the GET /v1/results body of a done job (resultDocument), built
	// with the job; docErr is why there is none.
	doc    []byte
	docErr error
}

// loadState returns the current lifecycle state.
func (j *Job) loadState() State { return State(j.state.Load()) }

// Wait blocks until the job completes or the context is cancelled.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Result returns the result summary, fingerprint and run duration of a
// completed job; it errors if the job failed or has not finished. It gates on
// the state, not on Done: the state is what snapshot and the wire API report.
// The fingerprint is Summary.Fingerprint, hashed per call from the digests.
func (j *Job) Result() (*scenario.Summary, string, time.Duration, error) {
	if st := j.loadState(); st != stateDone && st != stateFailed {
		return nil, "", 0, fmt.Errorf("service: job %s is %s", j.Hash, st)
	}
	if j.fperr != nil {
		return nil, "", 0, j.fperr
	}
	return j.result, j.result.Fingerprint(), j.elapsed, nil
}

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

// snapshot captures the job's current status.
func (j *Job) snapshot() Status {
	st := Status{
		ID:         j.Hash,
		State:      j.loadState().String(),
		CellsDone:  j.cellsDone.Load(),
		CellsTotal: j.cellsTotal.Load(),
		CellHits:   j.cellHits.Load(),
		CellMisses: j.cellMisses.Load(),
		CacheHits:  j.hits.Load(),
		CreatedAt:  j.created.UTC().Format(time.RFC3339Nano),
		RequestID:  j.reqID,
		TraceURL:   "/v1/jobs/" + j.Hash + "/trace",
	}
	switch j.loadState() {
	case stateDone:
		st.ElapsedSec = j.elapsed.Seconds()
		st.ResultURL = "/v1/results/" + j.Hash
	case stateFailed:
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
	// FailThreshold trips a peer's circuit breaker after this many
	// consecutive transport failures (default 3). See health.go.
	FailThreshold int
	// ProbeBackoff is how long a freshly tripped peer stays down before
	// one probe attempt is admitted (default 1s). Each failed probe
	// doubles it, up to maxProbeBackoff (health.go); the period is
	// jittered by ±50%.
	ProbeBackoff time.Duration
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
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeBackoff <= 0 {
		c.ProbeBackoff = time.Second
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

	// now and rng are the fault-tolerance layer's time and randomness
	// sources, injectable so tests drive probe scheduling with a fake
	// clock and a fixed jitter stream.
	now   func() time.Time
	rngMu sync.Mutex
	rng   *xrand.RNG

	// reg and mx are the node's metric registry (served at /metrics)
	// and the pre-registered service metric set.
	reg *obs.Registry
	mx  *serviceMetrics

	mu       sync.Mutex
	inflight map[string]*Job                 // queued/running, by spec hash
	cache    *lru.Cache[*Job]                // done/failed jobs, by spec hash
	cells    *lru.Cache[scenario.RunSummary] // finished cells, by cell hash
	// jobBytes is the summed document length of the cached jobs
	// (asymd_job_cache_bytes), kept by execute and cache.OnDrop.
	jobBytes int64
	plans    *lru.Cache[*scenario.Plan] // memoized plans, by spec hash (shard API)
	traces   *lru.Cache[*trace.SpanSet] // finished job traces, by spec hash
	// simtraces caches rendered per-cell sim-time Chrome traces by cell
	// hash; simtraceBytes is the heap they pin, their summed capacity (the
	// asymd_cache_bytes{cache="simtrace"} gauge), kept by simTrace and
	// simtraces.OnDrop and held to maxSimtraceBytes.
	simtraces     *lru.Cache[[]byte]
	simtraceBytes int64
	closed        bool

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
		rng:      xrand.New(0x4ea1),
		inflight: make(map[string]*Job),
		cache:    lru.New[*Job](cfg.CacheSize),
		cells:    lru.New[scenario.RunSummary](cfg.CellCacheSize),
		plans:    lru.New[*scenario.Plan](planCacheSize),

		traces:    lru.New[*trace.SpanSet](cfg.TraceRetention),
		simtraces: lru.New[[]byte](cfg.TraceRetention),
	}
	m.cache.OnDrop = func(j *Job) { m.jobBytes -= int64(len(j.doc)) }
	m.simtraces.OnDrop = func(b []byte) { m.simtraceBytes -= int64(cap(b)) }
	mx.poolWorkers.Set(int64(cfg.Workers))
	local.busy = mx.poolBusy
	local.runs = mx.cellRuns
	local.panics = mx.cellPanics
	local.runSec = mx.cellRunSec
	local.parallelism = mx.poolParallelism
	local.compiled = mx.compiledEntries
	backends := []Backend{local}
	for _, peer := range cfg.Peers {
		backends = append(backends, newRemoteBackend(peer, nil))
	}
	m.setBackends(backends...)
	return m
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
// the ID rides the job into worker shard requests and log lines. The spec is
// encoded and hashed once (its Key), and a new job's plan reuses both. A
// known spec is absorbed unvalidated; a new one is validated once, by its plan,
// before anything is registered, then completed here if the cell cache holds
// its every cell (no slot taken) or queued with its plan.
func (m *Manager) submit(spec scenario.Spec, reqID string) (job *Job, existing bool, err error) {
	// Strip execution-only fields: the service owns observation, and the
	// hash ignores them anyway. Probe is stripped too — per-cell sim traces
	// are served on demand by re-execution (simTrace), not by probing every
	// banked cell.
	spec.Probe = false
	spec.Progress = nil
	key, err := spec.Key()
	if err != nil {
		if verr := spec.Validate(); verr != nil {
			err = verr // it names the field
		}
		return nil, false, err
	}
	hash := key.Hash
	m.mu.Lock()
	j, ok, err := m.absorb(hash)
	m.mu.Unlock()
	if ok || err != nil {
		return j, ok, err
	}

	created := m.now()
	plan, err := m.planFor(key, spec)
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
	// The probe is a Peek, so a miss leaves the LRU as it was; a job whose
	// every cell is cached takes them here, as runJob's pass would.
	var runs []scenario.RunSummary
	if m.cachesAll(plan.Cells) {
		runs = make([]scenario.RunSummary, len(plan.Cells))
		m.takeCells(plan.Cells, runs)
	}
	m.mu.Unlock()
	if runs == nil {
		m.mx.jobsQueued.Inc()
		go m.execute(j, nil)
	} else {
		m.mx.jobsDoneAtSubmit.Inc()
		m.execute(j, runs)
	}
	return j, false, nil
}

// cachesAll reports whether the cell cache holds every cell, without moving
// the LRU; the caller holds m.mu.
func (m *Manager) cachesAll(cells []scenario.CellJob) bool {
	for _, c := range cells {
		if _, ok := m.cells.Peek(c.Hash); !ok {
			return false
		}
	}
	return true
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

// familySpec is the spec of a registered family at a scale, seed optionally
// overriding the family default.
func familySpec(name string, scale float64, seed *uint64) (scenario.Spec, error) {
	f, ok := scenario.Lookup(name)
	if !ok {
		return scenario.Spec{}, fmt.Errorf("service: unknown scenario family %q (known: %v)", name, scenario.Names())
	}
	if err := scenario.CheckScale(scale); err != nil {
		return scenario.Spec{}, fmt.Errorf("service: family %w", err)
	}
	spec := f.Spec(scale)
	if seed != nil {
		spec.Seed = *seed
	}
	return spec, nil
}

// execute runs one job — serve cells from cache, dispatch the misses, merge —
// and publishes it. Admission slots bound executing jobs to Workers: excess
// submissions wait here, observably queued. A job submit took from the cell
// cache (runs set) runs on the submitting goroutine and takes no slot.
func (m *Manager) execute(j *Job, runs []scenario.RunSummary) {
	defer m.wg.Done()
	atSubmit := runs != nil
	j.started = j.planned
	if !atSubmit {
		m.sem <- struct{}{}
		defer func() { <-m.sem }()
		j.started = m.now()
		m.mx.jobsQueued.Dec()
		m.mx.jobsRunning.Inc()
	}
	j.state.Store(int32(stateRunning))
	m.mx.jobQueueSec.Observe(j.started.Sub(j.planned).Seconds())

	// Thread the job's tracer and request ID through the dispatch path:
	// backends record spans and remote shard POSTs carry the ID.
	spans := j.spans.Load()
	jt := newJobTrace(j.created, m.now, spans)
	jt.span(trace.Span{Name: "queued", Cat: "job", Lane: "job", Start: j.planned.Sub(j.created), End: j.started.Sub(j.created)})
	ctx := withJobTrace(withRequestID(context.Background(), j.reqID), jt)

	res, err := m.runJob(ctx, j, runs)
	j.finished = m.now()
	j.elapsed = j.finished.Sub(j.started)
	if !atSubmit {
		m.mx.jobsRunning.Dec()
	}
	m.mx.jobRunSec.Observe(j.elapsed.Seconds())
	if err != nil {
		j.fperr = err
		j.state.Store(int32(stateFailed))
		m.mx.jobsFailed.Inc()
	} else {
		j.result = res
		j.doc, j.docErr = resultDocument(j.Hash, res)
		j.state.Store(int32(stateDone))
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
func resultDocument(hash string, res *scenario.Summary) ([]byte, error) {
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

// jobTrace returns a job's service-level span timeline: the live set for
// an in-flight job, the retained one for a finished job.
func (m *Manager) jobTrace(hash string) (*trace.SpanSet, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.inflight[hash]; ok {
		if spans := j.spans.Load(); spans != nil {
			return spans, true
		}
	}
	return m.traces.Get(hash)
}

// errUnknownJob reports a job ID the manager does not know (evicted or
// never submitted); the HTTP layer maps it to 404.
var errUnknownJob = errors.New("unknown job (evicted or never submitted)")

// maxTracedTasks caps the cell a sim-trace render re-executes for a client:
// a render holds the cell's records and its Chrome-trace bytes, which the
// render cache keeps. At 32 768 tasks `dagsim -parallelism 8 -interfere dvfs
// -trace` peaks at 21 MB of RSS writing a 39 MB trace to a file; every paper
// cell fits.
const maxTracedTasks = 1 << 15

// maxSimtraceBytes bounds the bytes of the rendered sim traces the render
// cache keeps: it holds at least six renders at maxTracedTasks, and evicts
// the least recently used while it is over.
const maxSimtraceBytes = 256 << 20

// simTrace renders the sim-time schedule trace of one cell of a job as
// Chrome-trace JSON: task slices plus queue-depth, ready-task, PTT-error
// and per-core-utilization counter lanes. Like replay it re-runs the cell
// on the local executor, under ctx, here with a probe (Plan.RunCellTrace),
// and caches the rendered bytes by cell hash.
func (m *Manager) simTrace(ctx context.Context, id string, cell int) ([]byte, error) {
	j, ok := m.job(id)
	if !ok {
		return nil, errUnknownJob
	}
	plan, err := m.planOf(j.Spec)
	if err != nil {
		return nil, err
	}
	if cell < 0 || cell >= len(plan.Cells) {
		return nil, fmt.Errorf("cell %d outside the %d-cell grid", cell, len(plan.Cells))
	}
	c := plan.Cells[cell]
	if n := plan.CellTasks(c); n > maxTracedTasks {
		return nil, fmt.Errorf("cell %d has up to %.0f tasks: a sim trace is rendered for a cell of at most MaxTracedTasks (%d)", cell, n, maxTracedTasks)
	}
	m.mu.Lock()
	b, ok := m.simtraces.Get(c.Hash)
	m.mu.Unlock()
	if ok {
		return b, nil
	}
	var buf bytes.Buffer
	err = m.local.rerun(ctx, plan, []scenario.CellJob{c}, func(_ int, st *scenario.CellState) error {
		_, _, err := plan.RunCellTrace(st, c, &buf) // the summary was banked with the job
		return err
	})
	if err != nil {
		return nil, err
	}
	b = buf.Bytes()
	if cap(b)-len(b) > len(b)/4 {
		b = bytes.Clone(b) // the cache keeps the trace, not the buffer's growth room
	}
	m.mu.Lock()
	m.keepSimtrace(c.Hash, b)
	m.mu.Unlock()
	m.mx.simtraceRenders.Inc()
	return b, nil
}

// replay re-runs a done job's cells on the local executor and assembles the
// full Result its summaries stand for, erring on the first cell whose digest
// is not the job's: a replay oracle for the cache and the peers that filled
// it. The re-runs, like sim-trace renders, leave the cell cache alone.
func (m *Manager) replay(ctx context.Context, j *Job) (*scenario.Result, error) {
	plan, err := m.planOf(j.Spec)
	if err != nil {
		return nil, err
	}
	runs := make([]scenario.RunMetrics, len(plan.Cells))
	err = m.local.rerun(ctx, plan, plan.Cells, func(k int, st *scenario.CellState) (err error) {
		runs[k], err = m.local.runCell(plan, st, plan.Cells[k])
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, c := range plan.Cells {
		if got, want := runs[i].Summary().Digest, j.result.Runs[i].Digest; got != want {
			return nil, fmt.Errorf("job %s: cell %d (%s, hash %.12s) re-ran to digest %x, the job holds %x",
				j.Hash, i, plan.CellLabel(c), c.Hash, got[:8], want[:8])
		}
	}
	return plan.Assemble(runs), nil
}

// keepSimtrace caches one rendered trace under its cell hash and evicts the
// least recently used renders while the cache pins more than
// maxSimtraceBytes. The caller holds m.mu.
func (m *Manager) keepSimtrace(hash string, b []byte) {
	m.simtraces.Add(hash, b)
	m.simtraceBytes += int64(cap(b))
	for m.simtraceBytes > maxSimtraceBytes {
		m.simtraces.RemoveOldest()
	}
	m.mx.simtraceEntries.Set(int64(m.simtraces.Len()))
	m.mx.simtraceBytes.Set(m.simtraceBytes)
}

// planCacheSize bounds the memoized-plan LRU used by the shard API: a
// worker re-planning a 10k-cell grid per 16-cell shard request would
// hash the whole grid hundreds of times per job.
const planCacheSize = 64

// runJob assembles one job's result from one array in plan order, runs[i]
// being the summary of plan cell i. A job submit took from the cell cache
// arrives with runs filled; any other job takes the cached cells here, in one
// pass under the lock, and dispatches the rest. Every grid position is one hit
// or one miss (the package doc says why that is sound).
func (m *Manager) runJob(ctx context.Context, j *Job, runs []scenario.RunSummary) (*scenario.Summary, error) {
	jt := jobTraceFrom(ctx)
	plan := j.plan
	var missing []int // positions
	if runs == nil {
		runs = make([]scenario.RunSummary, len(plan.Cells))
		m.mu.Lock()
		missing = m.takeCells(plan.Cells, runs)
		m.mu.Unlock()
	}
	misses := int64(len(missing))
	hits := int64(len(plan.Cells)) - misses
	m.mx.cellHits.Add(hits)
	m.mx.cellMisses.Add(misses)
	j.cellHits.Store(hits)
	j.cellMisses.Store(misses)
	j.cellsDone.Store(hits)

	if len(missing) > 0 {
		dispT0 := jt.at()
		err := m.dispatch(ctx, j, missing, runs)
		jt.span(trace.Span{Name: "dispatch", Cat: "job", Lane: "job",
			Start: dispT0, End: jt.at(),
			Args: map[string]string{"cells": fmt.Sprint(len(missing))}})
		if err != nil {
			return nil, err
		}
	}

	mergeT0 := jt.at()
	res := plan.Summarize(runs)
	jt.span(trace.Span{Name: "merge", Cat: "merge", Lane: "job", Start: mergeT0, End: jt.at()})
	j.cellsDone.Store(int64(len(plan.Cells)))
	return res, nil
}

// dispatch batches the job's plan cells at the given positions into shards
// and runs them concurrently (round-robin over the backends, failing over to
// the others), writing each cell's summary into runs at its position and
// advancing the job's progress by one. Successful cells enter the cell cache
// as their shard lands — not when the whole dispatch finishes — so a job that
// later fails still banks its finished cells, and a job admitted meanwhile
// starts hitting them as early as possible. A deterministic per-cell engine
// error fails the whole dispatch, like a failed cell fails a monolithic Run —
// and cancels the remaining shards: a doomed job must not keep simulating its
// grid.
func (m *Manager) dispatch(ctx context.Context, j *Job, pos []int, runs []scenario.RunSummary) error {
	plan := j.plan
	cells := make([]scenario.CellJob, len(pos))
	for k, i := range pos {
		cells[k] = plan.Cells[i]
	}
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Bound in-flight shards: enough to keep every backend's pool full
	// (Workers/ShardSize shards saturate the local pool; assume peers are
	// comparably sized), without a goroutine per shard of a huge grid.
	inflight := len(m.handles) * max(1, (m.cfg.Workers+m.cfg.ShardSize-1)/m.cfg.ShardSize)
	gate := make(chan struct{}, inflight)
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
	for lo := 0; lo < len(cells); lo += m.cfg.ShardSize {
		outMu.Lock()
		stop := firstErr != nil
		outMu.Unlock()
		if stop {
			break
		}
		hi := min(lo+m.cfg.ShardSize, len(cells))
		gate <- struct{}{}
		wg.Add(1)
		go func(si int, shard []scenario.CellJob, pos []int) {
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
			for k, cr := range crs {
				if cr.Err != nil {
					fail(fmt.Errorf("scenario %q: %s: %w", plan.Spec.Name, plan.CellLabel(shard[k]), cr.Err))
					continue
				}
				runs[pos[k]] = cr.Summary
				j.cellsDone.Add(1)
			}
		}(lo/m.cfg.ShardSize, cells[lo:hi], pos[lo:hi])
	}
	wg.Wait()
	return firstErr
}

// planFor returns a memoized plan for the spec, whose key the caller
// derived. A grid is hashed once per spec, not once per shard request:
// without this, a worker serving a 10k-cell grid in 16-cell shards would
// re-derive all 10k cell hashes hundreds of times. Plans are immutable after
// construction, so sharing one across concurrent shard requests is safe
// (RunCellState already runs concurrently against a single plan).
func (m *Manager) planFor(key scenario.Key, spec scenario.Spec) (*scenario.Plan, error) {
	m.mu.Lock()
	plan, ok := m.plans.Get(key.Hash)
	m.mu.Unlock()
	if ok {
		return plan, nil
	}
	plan, err := scenario.NewPlanWithKey(spec, key)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.plans.Add(key.Hash, plan)
	m.mx.planEntries.Set(int64(m.plans.Len()))
	m.mu.Unlock()
	return plan, nil
}

// planOf is planFor for a spec whose key is not at hand.
func (m *Manager) planOf(spec scenario.Spec) (*scenario.Plan, error) {
	key, err := spec.Key()
	if err != nil {
		return nil, err
	}
	return m.planFor(key, spec)
}

// takeCells is the read side of the cell-cache protocol (submit, runJob's
// pass, the worker shard path), under m.mu: each position is taken with Get,
// in input order, into runs, and the ones the cache lacks are returned in
// input order.
func (m *Manager) takeCells(cells []scenario.CellJob, runs []scenario.RunSummary) (missing []int) {
	for i, c := range cells {
		if sum, ok := m.cells.Get(c.Hash); ok {
			runs[i] = sum
		} else {
			missing = append(missing, i)
		}
	}
	return missing
}

// bankCells is the write side of the cell-cache protocol: successful
// results enter the cache as their shard lands. Failed cells, and the cells a
// cancelled attempt never ran (no Hash), do not.
func (m *Manager) bankCells(crs []CellResult) {
	m.mu.Lock()
	var fresh []CellResult
	evicted := int64(0)
	for _, cr := range crs {
		if cr.Err != nil || cr.Hash == "" {
			continue
		}
		// A cell entering the cache for the first time reports its
		// simulated scheduler activity (observed below, outside the lock);
		// re-banking a cell the cache already holds — two jobs, or two
		// positions of one, that simulated it — must not double-count.
		if _, seen := m.cells.Peek(cr.Hash); !seen {
			fresh = append(fresh, cr)
		}
		evicted += int64(m.cells.Add(cr.Hash, cr.Summary))
	}
	m.mx.cellEntries.Set(int64(m.cells.Len()))
	m.mx.cellCacheBytes.Set(int64(m.cells.Len()) * summaryBytes)
	m.mu.Unlock()
	m.mx.cellEvict.Add(evicted)
	// Sim-level telemetry: every banked cell counts, whether it ran on the
	// local pool or landed from a remote shard.
	for _, cr := range fresh {
		m.mx.observeSim(cr.Summary, cr.coreBusy)
	}
}

// summaryBytes is what one cached cell holds: a RunSummary has no pointer.
const summaryBytes = int64(unsafe.Sizeof(scenario.RunSummary{}))

// runShard runs one shard in one pass over the fleet: one attempt per
// admissible backend, starting at the shard's round-robin home. Peers whose
// circuit breaker is open are skipped (health.go). The local pool is always
// admissible and fails only when ctx is done, so in a fleet that holds it the
// pass always ends the shard. Remote attempts run under ShardTimeout so a
// wedged peer surfaces as an error instead of hanging the job. On
// cancellation the cells that completed are banked — finished simulation
// work survives even a failing job — and the backend is not blamed. Attempt
// errors accumulate via errors.Join: a failed shard reports every cause.
func (m *Manager) runShard(ctx context.Context, si int, plan *scenario.Plan, shard []scenario.CellJob) ([]CellResult, error) {
	n := len(m.handles)
	jt := jobTraceFrom(ctx)
	var attemptErrs []error
	for attempt := 0; attempt < n; attempt++ {
		h := m.handles[(si+attempt)%n]
		if !m.admit(h) {
			continue
		}
		actx, cancel := ctx, context.CancelFunc(func() {})
		if _, isLocal := h.Backend.(*localBackend); !isLocal && m.cfg.ShardTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, m.cfg.ShardTimeout)
		}
		// The attempt gets a leased display lane on the backend's track
		// group; nested spans (local cell runs, the worker's own
		// timeline) attach under it via the context.
		lane, releaseLane := jt.lane(h.label())
		actx = withTraceLane(actx, lane)
		attemptT0 := jt.at()
		attemptStart := m.now()
		crs, err := h.execute(actx, plan, shard)
		rtt := m.now().Sub(attemptStart)
		cancel()
		if jt != nil {
			outcome := "ok"
			if err != nil {
				outcome = "error: " + err.Error()
			}
			jt.span(trace.Span{
				Name: fmt.Sprintf("shard %d", si), Cat: "dispatch", Lane: lane,
				Start: attemptT0, End: jt.at(),
				Args: map[string]string{
					"backend": h.label(),
					"cells":   fmt.Sprint(len(shard)),
					"outcome": outcome,
				},
			})
		}
		releaseLane()
		if err == nil {
			m.report(h, nil)
			h.rttSec.Observe(rtt.Seconds())
			return crs, nil
		}
		if ctx.Err() != nil {
			// The dispatch itself was cancelled: bank the cells that
			// completed before the teardown, and abort. The attempt
			// proves nothing about the backend.
			m.cancelled(h)
			m.bankCells(crs)
			return nil, ctx.Err()
		}
		m.report(h, err)
		h.failures.Inc()
		m.mx.shardFailovers.Inc()
		attemptErrs = append(attemptErrs, fmt.Errorf("backend %s: %w", h.label(), err))
	}
	if len(attemptErrs) == 0 {
		return nil, fmt.Errorf("shard of %d cells: every backend's circuit breaker is open", len(shard))
	}
	return nil, fmt.Errorf("shard of %d cells failed on every admissible backend: %w",
		len(shard), errors.Join(attemptErrs...))
}

// job looks a job up by hash, in flight or cached.
func (m *Manager) job(hash string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.inflight[hash]; ok {
		return j, true
	}
	return m.cache.Get(hash)
}

// engineRuns reports how many jobs the manager has executed to a terminal
// state — submissions minus dedupe and cache hits. Like every count below
// it reads the metric registry's counters, the ones /metrics serves.
func (m *Manager) engineRuns() int64 { return m.mx.jobsDone.Value() + m.mx.jobsFailed.Value() }

// cellRuns reports how many cells the local backend has simulated (for
// its own jobs and for shards served to peers).
func (m *Manager) cellRuns() int64 { return m.mx.cellRuns.Value() }

// jobs snapshots every known job — in flight first (newest submission
// first), then finished ones from most to least recently used — for the
// GET /v1/jobs listing.
func (m *Manager) jobs() []Status {
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
		out = append(out, j.snapshot())
	}
	for _, j := range cached {
		out = append(out, j.snapshot())
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

// stats returns current counters.
func (m *Manager) stats() Stats {
	backends := make([]string, len(m.handles))
	for i, h := range m.handles {
		backends[i] = h.label()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Workers:       m.cfg.Workers,
		CacheSize:     m.cfg.CacheSize,
		Cached:        m.cache.Len(),
		Inflight:      len(m.inflight),
		EngineRuns:    m.engineRuns(),
		CellCacheSize: m.cfg.CellCacheSize,
		CellsCached:   m.cells.Len(),
		CellHits:      m.mx.cellHits.Value(),
		CellMisses:    m.mx.cellMisses.Value(),
		CellRuns:      m.cellRuns(),
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
