package service

// Fleet observability: the manager owns an obs.Registry (served at
// GET /metrics) and, per job, a trace.SpanSet of service-level spans
// (served at GET /v1/jobs/{id}/trace as a Perfetto-loadable Chrome
// trace). Metrics cover the whole request path — job lifecycle, cell
// cache, local pool, per-peer shard RTT, retry/failover and breaker
// transitions — with zero allocations per update, so the counters can
// ride the cell hot path. Spans are the complementary view: where a
// counter says "37 failovers", the trace shows *which* shards moved to
// *which* backend lane and when.
//
// Every job also carries a request ID (X-Request-ID, generated when the
// submitter sends none) that is threaded through POST /v1/shards, so a
// worker's request log lines correlate with the coordinator's.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dynasym/internal/obs"
	"dynasym/internal/scenario"
	"dynasym/internal/trace"
)

// serviceMetrics is the manager's metric set. Every field is registered
// once in newServiceMetrics; per-peer series are added by setBackends.
type serviceMetrics struct {
	reg *obs.Registry

	jobsSubmitted    *obs.Counter
	jobsAbsorbed     *obs.Counter
	jobsDone         *obs.Counter
	jobsDoneAtSubmit *obs.Counter
	jobsFailed       *obs.Counter
	jobsQueued       *obs.Gauge
	jobsRunning      *obs.Gauge
	jobQueueSec      *obs.Histogram
	jobRunSec        *obs.Histogram

	cellRuns   *obs.Counter
	cellPanics *obs.Counter
	cellRunSec *obs.Histogram
	cellHits   *obs.Counter
	cellMisses *obs.Counter
	cellEvict  *obs.Counter
	jobEvict   *obs.Counter

	// Cache occupancy, set wherever an entry is added (evictions happen
	// only there): entries for the four result LRUs and the process-wide
	// compiled-workload cache, bytes for the two caches a daemon's memory
	// goes to — cells (scenario.RunMetrics.SizeBytes per entry) and finished
	// jobs (the length of each one's result document).
	jobEntries, cellEntries, traceEntries, simtraceEntries, compiledEntries *obs.Gauge
	cellCacheBytes, jobCacheBytes                                           *obs.Gauge

	poolWorkers *obs.Gauge
	poolBusy    *obs.Gauge
	// poolParallelism makes scheduling loss visible: a batch on an idle pool
	// reads the pool size when no worker idled while cells waited.
	poolParallelism *obs.Histogram

	shardRetryRounds *obs.Counter
	shardFailovers   *obs.Counter

	traceSpansDropped *obs.Counter

	// Sim-level telemetry: scheduler activity inside the simulated runs
	// this node banked into its cell cache (local pool runs and shard
	// results landing from peers alike). All virtual-time quantities.
	simTasks        *obs.Counter
	simSteals       *obs.Counter
	simDispatches   *obs.Counter
	simMakespanSec  *obs.Histogram
	simCoreUtil     *obs.Histogram
	simtraceRenders *obs.Counter
}

// Histogram ladders: cells run µs–minutes, jobs ms–tens of minutes, the
// wire ms–minute. All start low enough that warm-cache service stays
// visible and end past the configured timeouts.
var (
	cellSecBuckets = obs.ExpBuckets(1e-4, 10, 7) // 100µs .. 100s
	jobSecBuckets  = obs.ExpBuckets(1e-3, 10, 7) // 1ms .. 1000s
	rttSecBuckets  = obs.ExpBuckets(1e-3, 10, 6) // 1ms .. 100s
	// Virtual-time makespans of simulated cells: µs-scale toy graphs up
	// to minutes-scale paper sweeps.
	simMakespanBuckets = obs.ExpBuckets(1e-5, 10, 8) // 10µs .. 1000s (virtual)
	// Per-core utilization is a fraction of the makespan.
	simUtilBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
)

func newServiceMetrics(reg *obs.Registry, workers int) *serviceMetrics {
	// 1, 1.25, … up to the pool size: the effective workers of one batch.
	parallelismBuckets := make([]float64, 0, 4*workers-3)
	for q := 4; q <= 4*workers; q++ {
		parallelismBuckets = append(parallelismBuckets, float64(q)/4)
	}
	entries := func(cache string) *obs.Gauge {
		return reg.Gauge("asymd_cache_entries", "Entries held, per cache.", obs.L("cache", cache))
	}
	return &serviceMetrics{
		reg:              reg,
		jobsSubmitted:    reg.Counter("asymd_jobs_submitted_total", "Job submissions accepted (including ones absorbed by an in-flight or cached job)."),
		jobsAbsorbed:     reg.Counter("asymd_jobs_absorbed_total", "Submissions absorbed by an in-flight or cached job (no new engine run)."),
		jobsDone:         reg.Counter("asymd_jobs_done_total", "Jobs that finished successfully."),
		jobsDoneAtSubmit: reg.Counter("asymd_jobs_done_at_submit_total", "Jobs the cell cache answered in full inside their submit request (no worker hand-off)."),
		jobsFailed:       reg.Counter("asymd_jobs_failed_total", "Jobs that finished in failure."),
		jobsQueued:       reg.Gauge("asymd_jobs_queued", "Jobs admitted but waiting for a worker slot."),
		jobsRunning:      reg.Gauge("asymd_jobs_running", "Jobs currently executing their grid."),
		jobQueueSec:      reg.Histogram("asymd_job_queue_seconds", "Time from submission to execution start (0 for a job done at submit).", jobSecBuckets),
		jobRunSec:        reg.Histogram("asymd_job_run_seconds", "Time from execution start to completion.", jobSecBuckets),

		cellRuns:   reg.Counter("asymd_cell_runs_total", "Grid cells simulated by the local pool (own jobs and served shards)."),
		cellPanics: reg.Counter("asymd_cell_panics_total", "Local cell simulations that panicked and were turned into a failed cell."),
		cellRunSec: reg.Histogram("asymd_cell_run_seconds", "Wall time of one local cell simulation.", cellSecBuckets),
		cellHits:   reg.Counter("asymd_cell_cache_hits_total", "Grid cells served from the cell-result cache."),
		cellMisses: reg.Counter("asymd_cell_cache_misses_total", "Grid cells dispatched to a backend (cache misses)."),
		cellEvict:  reg.Counter("asymd_cell_cache_evictions_total", "Cell results evicted from the cell-result LRU."),
		jobEvict:   reg.Counter("asymd_job_cache_evictions_total", "Finished jobs evicted from the job LRU."),

		jobEntries:      entries("job"),
		cellEntries:     entries("cell"),
		traceEntries:    entries("trace"),
		simtraceEntries: entries("simtrace"),
		compiledEntries: entries("compiled"),
		cellCacheBytes:  reg.Gauge("asymd_cell_cache_bytes", "Estimated heap bytes of the cell results held by the cell cache."),
		jobCacheBytes:   reg.Gauge("asymd_job_cache_bytes", "Bytes of the result documents held by the finished-job cache."),

		poolWorkers: reg.Gauge("asymd_pool_workers", "Local pool capacity (concurrent cell simulations)."),
		poolBusy:    reg.Gauge("asymd_pool_busy_workers", "Local pool workers currently simulating a cell."),
		poolParallelism: reg.Histogram("asymd_pool_batch_parallelism",
			"Effective workers of one executed local batch: summed cell wall time over the batch's wall time.", parallelismBuckets),

		shardRetryRounds: reg.Counter("asymd_shard_retry_rounds_total", "Extra retry rounds entered by shards (first round excluded)."),
		shardFailovers:   reg.Counter("asymd_shard_failovers_total", "Failed shard attempts that moved the shard to another backend or round."),

		traceSpansDropped: reg.Counter("asymd_trace_spans_dropped_total", "Service-trace spans dropped by the per-job retention cap."),

		simTasks:        reg.Counter("asymd_sim_tasks_total", "Simulated task executions inside cells banked by this node."),
		simSteals:       reg.Counter("asymd_sim_steals_total", "Simulated work steals inside cells banked by this node."),
		simDispatches:   reg.Counter("asymd_sim_dispatches_total", "Simulated assembly dispatches inside cells banked by this node."),
		simMakespanSec:  reg.Histogram("asymd_sim_makespan_seconds", "Virtual-time makespan of cells banked by this node.", simMakespanBuckets),
		simCoreUtil:     reg.Histogram("asymd_sim_core_utilization", "Per-core busy fraction of the makespan, one sample per simulated core per banked cell.", simUtilBuckets),
		simtraceRenders: reg.Counter("asymd_simtrace_renders_total", "Per-cell sim-time traces rendered by re-execution (cache hits excluded)."),
	}
}

// observeSim records one banked cell's simulated scheduler activity.
func (mx *serviceMetrics) observeSim(rm scenario.RunMetrics) {
	mx.simTasks.Add(rm.TasksDone)
	mx.simSteals.Add(rm.Steals)
	mx.simDispatches.Add(rm.Dispatches)
	mx.simMakespanSec.Observe(rm.Makespan)
	if rm.Makespan > 0 {
		for _, busy := range rm.CoreBusy {
			mx.simCoreUtil.Observe(busy / rm.Makespan)
		}
	}
}

// peerLabel is the metric label value for a backend handle: the bare
// peer URL for remote backends, the backend name otherwise.
func peerLabel(b Backend) string {
	if rb, ok := b.(*remoteBackend); ok {
		return rb.url
	}
	return b.Name()
}

// wirePeerMetrics registers the per-peer series for one breaker-tracked
// handle. Registration is get-or-create, so re-wrapped fleets share the
// existing series.
func (mx *serviceMetrics) wirePeerMetrics(h *backendHandle) {
	peer := obs.L("peer", peerLabel(h.Backend))
	h.rttSec = mx.reg.Histogram("asymd_peer_shard_rtt_seconds", "Round-trip time of successful shard attempts, per peer.", rttSecBuckets, peer)
	h.failures = mx.reg.Counter("asymd_peer_failures_total", "Failed shard attempts, per peer.", peer)
	h.stateG = mx.reg.Gauge("asymd_breaker_state", "Circuit-breaker state per peer: 0 healthy, 1 probing, 2 down.", peer)
	for s := peerHealthy; s <= peerDown; s++ {
		h.transitions[s] = mx.reg.Counter("asymd_breaker_transitions_total", "Circuit-breaker state transitions, per peer and target state.", peer, obs.L("to", s.String()))
	}
}

// maxSpansPerJob bounds one job's retained spans: a pathological grid
// keeps its newest-first picture instead of growing without bound.
const maxSpansPerJob = 1 << 14

// jobTrace carries one job's span set (plus the clock origin and lane
// allocator) through the dispatch path via context, so backends record
// spans without interface changes. All methods are nil-tolerant — a
// backend driven outside a job (no tracer in the context) costs one nil
// check per call site.
type jobTrace struct {
	spans *trace.SpanSet
	t0    time.Time
	now   func() time.Time

	mu    sync.Mutex
	slots map[string][]bool // lane prefix → slot occupancy
}

func newJobTrace(t0 time.Time, now func() time.Time, spans *trace.SpanSet) *jobTrace {
	return &jobTrace{spans: spans, t0: t0, now: now, slots: make(map[string][]bool)}
}

// at returns the current offset from the trace origin.
func (jt *jobTrace) at() time.Duration {
	if jt == nil {
		return 0
	}
	return jt.now().Sub(jt.t0)
}

// span records one slice. Safe on a nil trace.
func (jt *jobTrace) span(sp trace.Span) {
	if jt == nil {
		return
	}
	jt.spans.Add(sp)
}

// lane leases a display lane "<prefix> #<i>" with the lowest free slot
// index, so concurrent shards on one backend render on parallel tracks
// instead of overlapping. Release it when the slice ends.
func (jt *jobTrace) lane(prefix string) (string, func()) {
	if jt == nil {
		return "", func() {}
	}
	jt.mu.Lock()
	slots := jt.slots[prefix]
	idx := -1
	for i, used := range slots {
		if !used {
			idx = i
			break
		}
	}
	if idx < 0 {
		idx = len(slots)
		slots = append(slots, false)
	}
	slots[idx] = true
	jt.slots[prefix] = slots
	jt.mu.Unlock()
	lane := fmt.Sprintf("%s #%d", prefix, idx)
	return lane, func() {
		jt.mu.Lock()
		jt.slots[prefix][idx] = false
		jt.mu.Unlock()
	}
}

type jobTraceCtxKey struct{}
type traceLaneCtxKey struct{}
type requestIDCtxKey struct{}

func withJobTrace(ctx context.Context, jt *jobTrace) context.Context {
	if jt == nil {
		return ctx
	}
	return context.WithValue(ctx, jobTraceCtxKey{}, jt)
}

func jobTraceFrom(ctx context.Context) *jobTrace {
	jt, _ := ctx.Value(jobTraceCtxKey{}).(*jobTrace)
	return jt
}

// withTraceLane pins the display lane a backend's spans nest under (the
// shard attempt's lane, set by runShard).
func withTraceLane(ctx context.Context, lane string) context.Context {
	if lane == "" {
		return ctx
	}
	return context.WithValue(ctx, traceLaneCtxKey{}, lane)
}

func traceLaneFrom(ctx context.Context) string {
	lane, _ := ctx.Value(traceLaneCtxKey{}).(string)
	return lane
}

// withRequestID threads a request ID through the dispatch path so
// remote shard POSTs carry it.
func withRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDCtxKey{}, id)
}

func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDCtxKey{}).(string)
	return id
}

// Request-ID generation: a per-process random prefix plus an atomic
// counter — unique across a fleet without coordination, cheap, and easy
// to eyeball in two nodes' logs.
var (
	reqIDPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Entropy failure is not worth crashing a daemon over; fall
			// back to a fixed prefix (IDs stay unique per process).
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	reqIDCounter atomic.Uint64
)

func newRequestID() string {
	return fmt.Sprintf("%s-%06x", reqIDPrefix, reqIDCounter.Add(1))
}
