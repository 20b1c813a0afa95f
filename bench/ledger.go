package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"dynasym/internal/scenario"
	"dynasym/internal/service"
)

// The traced ledger replays the head of a workload's job stream in process,
// three times, each leg one layer further out:
//
//	stages   the calls a job makes into scenario's public functions, one
//	         span each (decode, parse, hash, plan, cell runs, merge,
//	         fingerprint)
//	manager  the same job through service.Manager.Submit/Wait/Result
//	http     the same job through an httptest server, with the client the
//	         real runs use
//
// What a leg costs beyond the one inside it is that layer's self time, by
// subtraction, job by job. Spans are recorded from here, around the calls;
// the programs are not instrumented.

// ledgerJobs is how many timed jobs of the stream the ledger replays.
const ledgerJobs = 100

// stageTimes is one job's time in each scenario-level stage, in ms.
type stageTimes struct {
	decode, parse, hash, plan, cellRun, merge, fingerprint float64
}

// inManager is the part of the stages that Manager.Submit/Wait/Result also
// executes (it receives a parsed spec, so decode and parse are outside).
func (s stageTimes) inManager() float64 {
	return s.hash + s.plan + s.cellRun + s.merge + s.fingerprint
}

// decodeRequest is the service's first step on a submission: the JSON decode
// of the request document.
func decodeRequest(body []byte) (service.SubmitRequest, error) {
	var req service.SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// parseRequest is its second: the spec a request names, from the family
// registry or from the raw spec document.
func parseRequest(req service.SubmitRequest) (scenario.Spec, error) {
	if req.Family == "" {
		return scenario.ParseSpec(req.Spec)
	}
	f, ok := scenario.Lookup(req.Family)
	if !ok {
		return scenario.Spec{}, fmt.Errorf("unknown family %q", req.Family)
	}
	spec := f.Spec(req.Scale)
	if req.Seed != nil {
		spec.Seed = *req.Seed
	}
	return spec, nil
}

// gcParked counts the ledgers that currently want the collector off, so
// that overlapping ones (the quick test runs workloads in parallel) restore
// the setting only when the last is done.
var gcParked struct {
	sync.Mutex
	depth, percent int
}

// parkGC turns the collector off until the returned function is called.
func parkGC() (unpark func()) {
	gcParked.Lock()
	defer gcParked.Unlock()
	if gcParked.depth == 0 {
		gcParked.percent = debug.SetGCPercent(-1)
	}
	gcParked.depth++
	return func() {
		gcParked.Lock()
		defer gcParked.Unlock()
		if gcParked.depth--; gcParked.depth == 0 {
			debug.SetGCPercent(gcParked.percent)
		}
	}
}

func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// ledger is the state the three legs keep across jobs: each leg has its own
// caches, as if it were the only one.
type ledger struct {
	w     *workload
	first int // stream index of jobs[0]
	jobs  []job
	rec   *spanRec

	// stages leg
	cells         map[string]scenario.RunMetrics
	st, stProbe   *scenario.CellState
	stages        []stageTimes
	fpBytes       []float64
	fpAllocs      []float64
	plain, probed time.Duration // cell runs without and with Spec.Probe

	// manager leg
	mgr           *service.Manager
	manager       []float64 // ms per job
	managerAllocs []float64
	managerKB     []float64

	// http leg: one client per server, one of them recording spans
	plainCl, traced *client
	http, httpT     []jobOutcome
}

func (l *ledger) timed(k int) bool { return k >= l.w.ledgerWarm }

// recorder is the span recorder for job k: warm-up jobs leave no spans.
func (l *ledger) recorder(k int) *spanRec {
	if l.timed(k) {
		return l.rec
	}
	return nil
}

// stagesLeg runs job k as the calls it makes into scenario's public
// functions, one span each.
func (l *ledger) stagesLeg(k int) error {
	j, idx, r := l.jobs[k], l.first+k, l.recorder(k)
	s := &l.stages[k]
	root := r.begin("ledger", "stages", idx, -1)
	defer r.end(root)
	stage := func(layer, name string, into *float64, f func() error) error {
		sp := r.begin(layer, name, idx, root)
		t0 := time.Now()
		err := f()
		*into = ms(time.Since(t0))
		r.end(sp)
		return err
	}

	var req service.SubmitRequest
	var spec scenario.Spec
	var plan *scenario.Plan
	var err error
	if err := stage("service", "decode SubmitRequest", &s.decode, func() error { req, err = decodeRequest(j.body); return err }); err != nil {
		return err
	}
	if err := stage("scenario", "ParseSpec", &s.parse, func() error { spec, err = parseRequest(req); return err }); err != nil {
		return err
	}
	if err := stage("scenario", "Spec.Hash", &s.hash, func() error { _, err = spec.Hash(); return err }); err != nil {
		return err
	}
	// A resubmission of a finished job ends here: the manager finds the job
	// under its hash and plans nothing.
	if j.wantCode == 200 {
		return nil
	}
	if err := stage("scenario", "NewPlan", &s.plan, func() error { plan, err = scenario.NewPlan(spec); return err }); err != nil {
		return err
	}

	var missing []scenario.CellJob
	seen := map[string]bool{}
	for _, c := range plan.Cells {
		if _, ok := l.cells[c.Hash]; !ok && !seen[c.Hash] {
			missing = append(missing, c)
			seen[c.Hash] = true
		}
	}
	if int64(len(missing)) != j.misses {
		return fmt.Errorf("job %d (%s): %d cells missing from the ledger's cell cache, the regime says %d", idx, spec.Name, len(missing), j.misses)
	}
	if len(missing) > 0 {
		probedSpec := spec
		probedSpec.Probe = true
		probedPlan, err := scenario.NewPlan(probedSpec)
		if err != nil {
			return err
		}
		runPlain := func() error {
			return stage("scenario", "Plan.RunCellState", &s.cellRun, func() error {
				for _, c := range missing {
					rm, err := plan.RunCellState(l.st, c)
					if err != nil {
						return err
					}
					l.cells[c.Hash] = rm
				}
				return nil
			})
		}
		runProbed := func() error {
			t0 := time.Now()
			for _, c := range missing {
				if _, err := probedPlan.RunCellState(l.stProbe, c); err != nil {
					return err
				}
			}
			if l.timed(k) {
				l.probed += time.Since(t0)
			}
			return nil
		}
		// Alternate which goes first so neither always runs on the caches
		// the other warmed.
		order := []func() error{runPlain, runProbed}
		if k%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, f := range order {
			if err := f(); err != nil {
				return err
			}
		}
		if l.timed(k) {
			l.plain += time.Duration(s.cellRun * float64(time.Millisecond))
		}
	}

	results := make(map[string]scenario.RunMetrics, len(plan.Cells))
	for _, c := range plan.Cells {
		results[c.Hash] = l.cells[c.Hash]
	}
	var res *scenario.Result
	if err := stage("scenario", "Merge", &s.merge, func() error { res, err = scenario.Merge(plan, results); return err }); err != nil {
		return err
	}
	var fp string
	_ = stage("scenario", "Result.Fingerprint", &s.fingerprint, func() error { fp = res.Fingerprint(); return nil })
	if l.timed(k) {
		// Allocations are counted on a second rendering: reading the memory
		// statistics stops the world, which has no place next to a
		// stop-watch.
		a0, _ := mallocs()
		_ = res.Fingerprint()
		a1, _ := mallocs()
		l.fpBytes = append(l.fpBytes, float64(len(fp)))
		l.fpAllocs = append(l.fpAllocs, float64(a1-a0))
	}
	return nil
}

// managerLeg runs job k through Manager.Submit/Wait/Result.
func (l *ledger) managerLeg(k int) error {
	req, err := decodeRequest(l.jobs[k].body)
	if err != nil {
		return err
	}
	spec, err := parseRequest(req)
	if err != nil {
		return err
	}
	r := l.recorder(k)
	a0, b0 := mallocs()
	sp := r.begin("service", "Manager.Submit/Wait/Result", l.first+k, -1)
	t0 := time.Now()
	sj, _, err := l.mgr.Submit(spec)
	if err != nil {
		return err
	}
	if err := sj.Wait(context.Background()); err != nil {
		return err
	}
	if _, _, _, err := sj.Result(); err != nil {
		return err
	}
	l.manager[k] = ms(time.Since(t0))
	r.end(sp)
	a1, b1 := mallocs()
	if l.timed(k) {
		l.managerAllocs = append(l.managerAllocs, float64(a1-a0))
		l.managerKB = append(l.managerKB, float64(b1-b0)/1024)
	}
	return nil
}

// httpLeg runs job k through the two httptest servers: one driven by a
// client that records spans, one by a client that does not, alternating
// which goes first.
func (l *ledger) httpLeg(k int) error {
	idx := l.first + k
	l.traced.rec = l.recorder(k)
	if k%2 == 0 {
		l.http[k] = l.plainCl.runJob(idx, l.jobs[k].body)
		runtime.GC()
		l.httpT[k] = l.traced.runJob(idx, l.jobs[k].body)
	} else {
		l.httpT[k] = l.traced.runJob(idx, l.jobs[k].body)
		runtime.GC()
		l.http[k] = l.plainCl.runJob(idx, l.jobs[k].body)
	}
	for _, o := range []jobOutcome{l.http[k], l.httpT[k]} {
		if o.err != nil {
			return fmt.Errorf("job %d: %w", idx, o.err)
		}
	}
	l.http[k].result, l.httpT[k].result = nil, nil
	return nil
}

// runLedger fills m.layer with the ledger rows of workload w and writes the
// spans as a Chrome trace into logDir. m carries the real-process run the
// residual is taken against.
func runLedger(w *workload, sh shape, logDir string, m *measured) error {
	n := min(ledgerJobs, len(m.records))
	total := w.ledgerWarm + n
	cfg := service.Config{Workers: 1, CacheSize: sh.jobCache, CellCacheSize: sh.cellCache}
	logf, err := os.Create(filepath.Join(logDir, "ledger-http.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	_, plainNode := inProcessNode(cfg, logf)
	defer plainNode.stop()
	_, tracedNode := inProcessNode(cfg, logf)
	defer tracedNode.stop()
	l := &ledger{
		w: w, first: w.warmup - w.ledgerWarm, jobs: make([]job, total), rec: newSpanRec(),
		cells: map[string]scenario.RunMetrics{}, st: scenario.NewCellState(), stProbe: scenario.NewCellState(),
		stages: make([]stageTimes, total),
		mgr:    service.NewManager(cfg), manager: make([]float64, total),
		plainCl: newClient(plainNode.url), traced: newClient(tracedNode.url),
		http: make([]jobOutcome, total), httpT: make([]jobOutcome, total),
	}
	defer l.plainCl.close()
	defer l.traced.close()
	for k := range l.jobs {
		l.jobs[k] = w.gen(l.first + k)
	}

	// The collector is parked for the whole ledger and run by hand before
	// every leg of every job, outside every stop-watch. How often it would
	// otherwise strike depends on how much heap happens to be live, which
	// differs from leg to leg (and from the daemon's); with it parked the
	// rows are the layers' own work, and what collection costs the real
	// daemon stays where it belongs, in the residual.
	defer parkGC()()

	// The legs are interleaved job by job, not run one after the other: the
	// machine's speed wanders over seconds, and a self time is the
	// difference of two legs. The order rotates so that each leg is as
	// often the one that meets a workload variant first and pays for
	// compiling it into scenario's process-wide cache.
	legs := []func(int) error{l.stagesLeg, l.managerLeg, l.httpLeg}
	for k := range l.jobs {
		for i := range legs {
			runtime.GC()
			if err := legs[(k+i)%len(legs)](k); err != nil {
				return err
			}
		}
	}
	if err := l.mgr.Shutdown(context.Background()); err != nil {
		return err
	}

	// Reduce: medians over the timed jobs; self times and the residual are
	// medians of per-job differences.
	over := func(f func(k int) (float64, bool)) float64 {
		var xs []float64
		for k := range l.jobs {
			if v, ok := f(k); ok && l.timed(k) {
				xs = append(xs, v)
			}
		}
		return median(xs)
	}
	stageRow := func(f func(stageTimes) float64) float64 {
		return over(func(k int) (float64, bool) { return f(l.stages[k]), true })
	}
	rows := m.layer
	rows["service.decode_ms"] = stageRow(func(s stageTimes) float64 { return s.decode })
	rows["scenario.parse_ms"] = stageRow(func(s stageTimes) float64 { return s.parse })
	rows["scenario.hash_ms"] = stageRow(func(s stageTimes) float64 { return s.hash })
	rows["scenario.plan_ms"] = stageRow(func(s stageTimes) float64 { return s.plan })
	rows["scenario.cell_run_ms"] = stageRow(func(s stageTimes) float64 { return s.cellRun })
	rows["scenario.merge_ms"] = stageRow(func(s stageTimes) float64 { return s.merge })
	rows["scenario.fingerprint_ms"] = stageRow(func(s stageTimes) float64 { return s.fingerprint })
	rows["scenario.fingerprint_bytes"] = median(l.fpBytes)
	rows["scenario.fingerprint_allocs"] = median(l.fpAllocs)
	rows["scenario.probe_overhead_frac"] = 0
	if l.plain > 0 {
		rows["scenario.probe_overhead_frac"] = float64(l.probed-l.plain) / float64(l.plain)
	}

	rows["service.manager_ms"] = over(func(k int) (float64, bool) { return l.manager[k], true })
	rows["service.manager_self_ms"] = over(func(k int) (float64, bool) {
		return l.manager[k] - l.stages[k].inManager(), true
	})
	rows["service.manager_allocs_per_job"] = median(l.managerAllocs)
	rows["service.manager_kb_per_job"] = median(l.managerKB)

	rows["service.http_ms"] = over(func(k int) (float64, bool) { return ms(l.http[k].latency), true })
	rows["service.http_self_ms"] = over(func(k int) (float64, bool) {
		return ms(l.http[k].latency) - l.manager[k], true
	})
	rows["service.result_get_ms"] = over(func(k int) (float64, bool) { return ms(l.http[k].resultDur), true })
	rows["service.status_get_ms"] = over(func(k int) (float64, bool) {
		o := l.http[k]
		return ms(o.statusDur) / float64(max(o.statusGets, 1)), o.statusGets > 0
	})
	// Sums, not medians: within a pair whichever side runs second finds
	// warm caches, and only over all pairs does that cancel.
	var plainSum, tracedSum time.Duration
	for k := range l.jobs {
		if l.timed(k) {
			plainSum += l.http[k].latency
			tracedSum += l.httpT[k].latency
		}
	}
	rows["ledger.trace_overhead_frac"] = float64(tracedSum-plainSum) / float64(plainSum)

	// The traced client's span tree splits a job into its requests; what no
	// request covers is the client itself: sleeping between polls, decoding
	// statuses.
	var clientSelf []float64
	for i, sp := range l.rec.spans {
		if sp.layer == "loadgen" {
			clientSelf = append(clientSelf, ms(selfTime(l.rec.spans, i)))
		}
	}
	rows["loadgen.job_self_ms"] = median(clientSelf)

	// A few sim-time traces of the latest jobs' first cells (the ones still
	// in the job LRU; rendered by re-executing the cell, so worth a row of
	// their own) and a few scrapes.
	var simtrace, scrapes []float64
	for k := max(total-3, w.ledgerWarm); k < total; k++ {
		t0 := time.Now()
		if _, err := l.plainCl.get("/v1/jobs/" + l.http[k].status.ID + "/cells/0/simtrace"); err != nil {
			return err
		}
		simtrace = append(simtrace, ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := l.plainCl.get("/metrics"); err != nil {
			return err
		}
		scrapes = append(scrapes, ms(time.Since(t0)))
	}
	rows["service.simtrace_get_ms"] = median(simtrace)
	rows["obs.scrape_ms"] = median(scrapes)

	// The residual: what the real daemon's client waited for beyond the
	// in-process http leg, job by job (the streams are identical), so that a
	// mix of small and large jobs does not blur it.
	var real, residual []float64
	for _, r := range m.records {
		if k := r.index - l.first; k < total {
			real = append(real, ms(r.out.latency))
			residual = append(residual, ms(r.out.latency-l.http[k].latency))
		}
	}
	rows["ledger.residual_ms"] = median(residual)
	rows["ledger.residual_frac"] = median(residual) / median(real)

	tf, err := os.Create(filepath.Join(logDir, "ledger-trace.json"))
	if err != nil {
		return err
	}
	if err := l.rec.writeChrome(tf); err != nil {
		tf.Close()
		return err
	}
	return tf.Close()
}
