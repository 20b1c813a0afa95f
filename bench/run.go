package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dynasym/internal/service"
)

// node is one serving asymd: where to reach it and which process pays for
// it.
type node struct {
	url string
	// pid is the process whose CPU time and peak RSS count for this node
	// (the benchmark's own pid when the node runs in process).
	pid  int
	stop func()
}

// cluster is what a workload runs against; nodes[0] takes the clients.
type cluster []node

func (c cluster) stop() {
	for _, n := range c {
		n.stop()
	}
}

// launcher brings up a workload's topology. logDir receives the nodes'
// logs; attempt numbers the set-ups of one run.
type launcher func(w *workload, logDir string, attempt int) (cluster, error)

// processLauncher starts real asymd children with default flags: a single
// node, or a worker plus a coordinator that farms shards to it.
func processLauncher(binDir string) launcher {
	bin := filepath.Join(binDir, "asymd")
	return func(w *workload, logDir string, attempt int) (cluster, error) {
		logPath := func(role string) string {
			return filepath.Join(logDir, fmt.Sprintf("%s-setup%d.log", role, attempt))
		}
		if !w.fleet {
			d, err := startDaemon(bin, logPath("asymd"))
			if err != nil {
				return nil, err
			}
			return cluster{{url: d.url, pid: d.cmd.Process.Pid, stop: d.stop}}, nil
		}
		worker, err := startDaemon(bin, logPath("worker"))
		if err != nil {
			return nil, err
		}
		coord, err := startDaemon(bin, logPath("coordinator"), "-peers", worker.url)
		if err != nil {
			worker.stop()
			return nil, err
		}
		return cluster{
			{url: coord.url, pid: coord.cmd.Process.Pid, stop: coord.stop},
			{url: worker.url, pid: worker.cmd.Process.Pid, stop: worker.stop},
		}, nil
	}
}

// inProcessNode serves a Manager from an httptest server, logging requests
// the way the daemon does. The traced ledger and the quick mode use it.
func inProcessNode(cfg service.Config, logw io.Writer) (*service.Manager, node) {
	m := service.NewManager(cfg)
	srv := httptest.NewServer(m.Handler(slog.New(slog.NewTextHandler(logw, nil))))
	return m, node{url: srv.URL, pid: os.Getpid(), stop: srv.Close}
}

// inProcessLauncher is the quick mode's topology: the same managers behind
// httptest servers, with the small caches of the given shape. No child
// processes.
func inProcessLauncher(sh shape) launcher {
	return func(w *workload, logDir string, attempt int) (cluster, error) {
		cfg := service.Config{CacheSize: sh.jobCache, CellCacheSize: sh.cellCache}
		if !w.fleet {
			_, n := inProcessNode(cfg, io.Discard)
			return cluster{n}, nil
		}
		_, worker := inProcessNode(cfg, io.Discard)
		cfg.Peers = []string{worker.url}
		_, coord := inProcessNode(cfg, io.Discard)
		return cluster{coord, worker}, nil
	}
}

// runOpts selects how long one run measures.
type runOpts struct {
	seed uint64
	// seconds bounds the timed section of an untraced run; a traced run
	// times a fixed job count (the workload's window, scaled by seconds/10)
	// so that its counters repeat exactly.
	seconds float64
	traced  bool
	// window overrides the traced run's job count (quick mode).
	window int
}

// setupCount is how many set-ups a run performs when its workload asks for
// own: a traced run reports no setup_s and makes do with one.
func (o runOpts) setupCount(own int) int {
	if o.traced {
		return 1
	}
	return own
}

// jobRecord is one timed job as the generator saw it.
type jobRecord struct {
	index  int // position in the workload's stream
	end    time.Time
	out    jobOutcome
	verify time.Duration
	gen    time.Duration
	err    error
}

// measured is everything one run of one workload produced.
type measured struct {
	workload  string
	attempted int
	failed    int
	firstErr  error
	// e2e and layer hold metric values by BENCHMARK.json name.
	e2e   map[string]float64
	layer map[string]float64
	// records are the timed jobs in completion order per client.
	records []jobRecord
}

// cpu is the CPU time the cluster's processes have used so far (in-process
// nodes share one process, counted once).
func (c cluster) cpu() time.Duration {
	var sum time.Duration
	seen := map[int]bool{}
	for _, n := range c {
		if !seen[n.pid] {
			seen[n.pid] = true
			d, _ := procCPU(n.pid)
			sum += d
		}
	}
	return sum
}

// scrape is the cluster's /metrics pages, node by node and summed (fleet =
// sum over nodes), and its processes' peak RSS.
type scrape struct {
	nodes []promSample
	prom  promSample
	rss   int64
}

func scrapeCluster(c cluster) (scrape, error) {
	s := scrape{prom: promSample{}}
	seen := map[int]bool{}
	for _, n := range c {
		cl := newClient(n.url)
		b, err := cl.get("/metrics")
		cl.close()
		if err != nil {
			return s, err
		}
		p, err := parseProm(bytes.NewReader(b))
		if err != nil {
			return s, err
		}
		s.nodes = append(s.nodes, p)
		s.prom.add(p)
		if seen[n.pid] {
			continue
		}
		seen[n.pid] = true
		rss, err := procPeakRSS(n.pid)
		if err != nil {
			return s, err
		}
		s.rss += rss
	}
	return s, nil
}

// sliceEvery is the length of the slices a run's timed section is cut into,
// and quietShare the share of them — the ones with the lowest median latency
// — that the end-to-end timings are taken over. This class of machine is
// slowed by its neighbours in spells of seconds to a minute; a spell moves a
// run's whole-section median by as much as 40 %, its quietest slices by far
// less, so long as the run is longer than the spell.
const (
	sliceEvery = 500 * time.Millisecond
	quietShare = 1.0 / 4
)

// minSliceJobs is the fewest jobs a slice needs for its figures to count.
const minSliceJobs = 5

// mark is a slice boundary: when it was drawn and how much CPU the cluster
// had used by then.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// slicer draws slice boundaries at a fixed interval. Clients call tick
// between jobs, so the /proc reads never sit inside a job's stop-watch.
type slicer struct {
	mu       sync.Mutex
	c        cluster
	interval time.Duration
	marks    []mark
}

func newSlicer(c cluster, interval time.Duration) *slicer {
	s := &slicer{c: c, interval: interval}
	s.draw(time.Now())
	return s
}

func (s *slicer) draw(now time.Time) {
	s.marks = append(s.marks, mark{at: now, cpu: s.c.cpu()})
}

func (s *slicer) tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now := time.Now(); now.Sub(s.marks[len(s.marks)-1].at) >= s.interval {
		s.draw(now)
	}
}

// timings are the end-to-end figures of a set of jobs.
type timings struct {
	P50       float64 `json:"job_p50_ms"`
	P90       float64 `json:"job_p90_ms"`
	JobsPerS  float64 `json:"jobs_per_s"`
	CPUPerJob float64 `json:"cpu_ms_per_job"`
}

// slice is one stretch of the timed section: the jobs that ended in it and
// the CPU the cluster used over it. slices.json keeps every slice of a run.
type slice struct {
	timings
	Jobs int `json:"jobs"`
	// Quiet marks the slices the run's end-to-end timings were taken over.
	Quiet bool `json:"quiet"`

	lat []float64 // sorted, ms
	cpu time.Duration
}

// newSlice reduces a slice's own jobs.
func newSlice(lat []float64, cpu time.Duration, clients int) slice {
	sort.Float64s(lat)
	sl := slice{Jobs: len(lat), lat: lat, cpu: cpu}
	sl.timings = timingsOf(lat, cpu, clients)
	return sl
}

// timingsOf reduces sorted latencies and the CPU spent on those jobs.
// Throughput is jobs per second of client busy time, summed over clients:
// what the closed-loop callers would see with no think time.
func timingsOf(sortedLat []float64, cpu time.Duration, clients int) timings {
	var busy float64 // ms
	for _, l := range sortedLat {
		busy += l
	}
	n := float64(len(sortedLat))
	return timings{
		P50: percentile(sortedLat, 50), P90: percentile(sortedLat, 90),
		JobsPerS:  float64(clients) * n / (busy / 1000),
		CPUPerJob: ms(cpu) / n,
	}
}

// slices closes the last slice and sorts the records into slices by the time
// they ended. A slice with too few jobs, or a last one under half the
// interval, is dropped: its median is the noisiest and would be picked as
// quiet, or not, by chance. With too few jobs to fill any slice (quick mode)
// the whole section is one slice.
func (s *slicer) slices(recs []jobRecord, clients int) []slice {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draw(time.Now())
	between := func(from, to mark) slice {
		var lat []float64
		for _, r := range recs {
			if !r.end.Before(from.at) && r.end.Before(to.at) {
				lat = append(lat, ms(r.out.latency))
			}
		}
		return newSlice(lat, to.cpu-from.cpu, clients)
	}
	var out []slice
	for i := 1; i < len(s.marks); i++ {
		from, to := s.marks[i-1], s.marks[i]
		if sl := between(from, to); sl.Jobs >= minSliceJobs && to.at.Sub(from.at) >= s.interval/2 {
			out = append(out, sl)
		}
	}
	if len(out) == 0 {
		out = append(out, between(s.marks[0], s.marks[len(s.marks)-1]))
	}
	return out
}

// quietTimings marks the quietest share of the slices — lowest median
// latency first — and returns the timings of their jobs taken together.
func quietTimings(slices []slice, clients int) timings {
	order := make([]int, len(slices))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return slices[order[a]].P50 < slices[order[b]].P50 })
	k := max(int(math.Ceil(float64(len(slices))*quietShare)), 1)
	var lat []float64
	var cpu time.Duration
	for _, i := range order[:k] {
		slices[i].Quiet = true
		lat = append(lat, slices[i].lat...)
		cpu += slices[i].cpu
	}
	sort.Float64s(lat)
	return timingsOf(lat, cpu, clients)
}

// instance is what one daemon instance (one set-up and the segment of the
// timed section measured on it) produced.
type instance struct {
	setup         float64 // seconds, launch to end of warm-up
	records       []jobRecord
	slices        []slice
	before, after scrape
	genCPU        time.Duration // the generator's own CPU over the segment
}

// runInstance launches the workload's topology, warms it up, measures one
// segment of the timed section on it and stops it. Every client walks its
// share of the stream from index warmup, closed loop, until the segment's
// deadline (untraced) or its fixed count (traced).
func runInstance(w *workload, launch launcher, logDir string, attempt int, ref *referee, o runOpts, segment time.Duration, perClient int) (*instance, error) {
	t0 := time.Now()
	c, err := launch(w, logDir, attempt)
	if err != nil {
		return nil, err
	}
	defer c.stop()

	// Warm-up. Each job is held to its regime, so a drifted regime fails
	// here rather than skewing the timed section.
	cl := newClient(c[0].url)
	for i := 0; i < w.warmup; i++ {
		j := w.gen(i)
		j.verify = false
		if err := ref.check(j, cl.runJob(i, j.body)); err != nil {
			cl.close()
			return nil, fmt.Errorf("%s warm-up job %d: %w", w.name, i, err)
		}
	}
	cl.close()
	in := &instance{setup: time.Since(t0).Seconds()}

	if in.before, err = scrapeCluster(c); err != nil {
		return nil, err
	}
	genCPU0, _ := procCPU(os.Getpid())
	deadline := time.Now().Add(segment)
	recs := make([][]jobRecord, w.clients)
	cut := newSlicer(c, sliceEvery)
	var wg sync.WaitGroup
	for ci := 0; ci < w.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := newClient(c[0].url)
			defer cl.close()
			for k := 0; ; k++ {
				if o.traced && k >= perClient || !o.traced && !time.Now().Before(deadline) {
					return
				}
				idx := w.warmup + k*w.clients + ci
				g0 := time.Now()
				j := w.gen(idx)
				r := jobRecord{index: idx, gen: time.Since(g0)}
				r.out = cl.runJob(idx, j.body)
				r.end = time.Now()
				r.err = ref.check(j, r.out)
				r.out.result = nil // checked; a run's worth of result bodies is hundreds of MB
				r.verify = time.Since(r.end)
				recs[ci] = append(recs[ci], r)
				cut.tick()
			}
		}(ci)
	}
	wg.Wait()
	for _, rs := range recs {
		in.records = append(in.records, rs...)
	}
	in.slices = cut.slices(in.records, w.clients)
	if in.after, err = scrapeCluster(c); err != nil {
		return nil, err
	}
	genCPU1, _ := procCPU(os.Getpid())
	in.genCPU = genCPU1 - genCPU0

	// The worker of a fleet must have simulated something, or the workload
	// did not exercise the shard wire it exists for.
	if w.fleet && in.after.nodes[1].family("asymd_cell_runs_total") == 0 {
		return nil, fmt.Errorf("%s: the worker simulated no cell", w.name)
	}
	return in, nil
}

// runHTTP runs one HTTP workload. An untraced run sets up the workload's
// count of fresh instances one after the other and measures an equal share
// of -seconds on each: the set-up is timed that many times. A traced run
// measures its fixed job count on one instance.
func runHTTP(w *workload, launch launcher, logDir string, o runOpts) (*measured, error) {
	ref := newReferee(w.shareCells)
	res := &measured{workload: w.name, e2e: map[string]float64{}, layer: map[string]float64{}}
	n := o.setupCount(w.setups)
	segment := time.Duration(o.seconds * float64(time.Second) / float64(n))
	perClient := 0
	if o.traced {
		window := o.window
		if window == 0 {
			window = max(int(float64(w.window)*o.seconds/10), w.clients)
		}
		perClient = (window + w.clients*n - 1) / (w.clients * n)
	}

	// Streams that resubmit a fixed set keep one reference per member;
	// computing them up front keeps that work out of the timed section,
	// where it would make the first pass over the set unlike the later ones.
	for i := 0; i < w.warmup; i++ {
		if j := w.gen(i); j.refKey != "" {
			if _, err := ref.reference(j); err != nil {
				return nil, fmt.Errorf("%s reference for job %d: %w", w.name, i, err)
			}
		}
	}

	var setups, peaks []float64
	var slices []slice
	var genCPU time.Duration
	before, after := promSample{}, promSample{}
	for attempt := 0; attempt < n; attempt++ {
		in, err := runInstance(w, launch, logDir, attempt, ref, o, segment, perClient)
		if err != nil {
			return nil, err
		}
		setups = append(setups, in.setup)
		peaks = append(peaks, float64(in.after.rss)/(1<<20))
		slices = append(slices, in.slices...)
		res.records = append(res.records, in.records...)
		before.add(in.before.prom)
		after.add(in.after.prom)
		genCPU += in.genCPU
	}
	quiet := quietTimings(slices, w.clients)
	if err := writeJSON(filepath.Join(logDir, "slices.json"), slices); err != nil {
		return nil, err
	}

	// Reduce.
	var lat []float64
	var sleep, verify, gen time.Duration
	var reqBytes, resBytes, requests, retries int
	for _, r := range res.records {
		res.attempted++
		if r.err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = r.err
			}
		}
		lat = append(lat, ms(r.out.latency))
		sleep += r.out.pollSleep
		verify += r.verify
		gen += r.gen
		reqBytes += r.out.reqBytes
		resBytes += r.out.resBytes
		requests += r.out.requests
		if r.out.retried {
			retries++
		}
	}
	if res.attempted == 0 {
		return nil, fmt.Errorf("%s: no job ran in the timed section", w.name)
	}
	sort.Float64s(lat)
	jobs := float64(res.attempted)

	res.e2e["setup_s"] = median(setups)
	res.e2e["job_p50_ms"] = quiet.P50
	res.e2e["job_p90_ms"] = quiet.P90
	res.e2e["jobs_per_s"] = quiet.JobsPerS
	res.e2e["cpu_ms_per_job"] = quiet.CPUPerJob
	res.e2e["peak_rss_mb"] = median(peaks)

	d := func(name string) float64 { return after.family(name) - before.family(name) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	l := res.layer
	l["service.jobs_done"] = d("asymd_jobs_done_total")
	l["service.jobs_absorbed"] = d("asymd_jobs_absorbed_total")
	l["service.job_queue_s"] = ratio(d("asymd_job_queue_seconds_sum"), d("asymd_job_queue_seconds_count"))
	l["service.job_run_s"] = ratio(d("asymd_job_run_seconds_sum"), d("asymd_job_run_seconds_count"))
	l["service.cell_runs"] = d("asymd_cell_runs_total")
	l["service.cell_run_s"] = d("asymd_cell_run_seconds_sum")
	l["service.cell_cache_hits"] = d("asymd_cell_cache_hits_total")
	l["service.cell_cache_misses"] = d("asymd_cell_cache_misses_total")
	l["service.cell_cache_hit_ratio"] = ratio(l["service.cell_cache_hits"], l["service.cell_cache_hits"]+l["service.cell_cache_misses"])
	l["service.cell_cache_evictions"] = d("asymd_cell_cache_evictions_total")
	l["service.job_cache_evictions"] = d("asymd_job_cache_evictions_total")
	l["service.shard_failovers"] = d("asymd_shard_failovers_total")
	l["service.peer_shards"] = d("asymd_peer_shard_rtt_seconds_count")
	l["service.peer_shard_rtt_s"] = ratio(d("asymd_peer_shard_rtt_seconds_sum"), l["service.peer_shards"])
	l["service.request_bytes_per_job"] = float64(reqBytes) / jobs
	l["service.result_bytes_per_job"] = float64(resBytes) / jobs
	l["service.http_requests_per_job"] = float64(requests) / jobs
	l["service.result_retries"] = float64(retries)
	l["simrt.tasks"] = d("asymd_sim_tasks_total")
	l["simrt.steals"] = d("asymd_sim_steals_total")
	l["simrt.dispatches"] = d("asymd_sim_dispatches_total")
	l["simrt.tasks_per_busy_s"] = ratio(l["simrt.tasks"], l["service.cell_run_s"])
	loadgenRows(l, lat, sleep, verify, gen, genCPU, jobs)
	return res, nil
}

// loadgenRows fills the generator's own per-layer rows, shared by the HTTP
// and CLI workloads.
func loadgenRows(l map[string]float64, sortedLat []float64, sleep, verify, gen, cpu time.Duration, jobs float64) {
	l["loadgen.jobs"] = jobs
	l["loadgen.job_p99_ms"] = percentile(sortedLat, 99)
	l["loadgen.job_tail_pct"], l["loadgen.job_tail_ms"] = tailPercentile(sortedLat)
	l["loadgen.poll_sleep_ms_per_job"] = ms(sleep) / jobs
	l["loadgen.verify_ms_per_job"] = ms(verify) / jobs
	l["loadgen.gen_ms_per_job"] = ms(gen) / jobs
	l["loadgen.cpu_ms_per_job"] = ms(cpu) / jobs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
