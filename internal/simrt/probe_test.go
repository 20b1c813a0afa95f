package simrt

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dag"
	"dynasym/internal/kernels"
	"dynasym/internal/machine"
	"dynasym/internal/metrics"
	"dynasym/internal/topology"
)

// probeGraph builds and freezes a steal-heavy workload: low-priority tasks
// wake onto core 0, so the other cores live on the steal path while
// high-priority tasks exercise the dispatch path.
func probeGraph(n int) *dag.Frozen {
	g := dag.New()
	g.Grow(n, 0)
	cost := kernels.MatMulCost(64)
	for i := 0; i < n; i++ {
		g.Add(dag.Task{
			Label: "probe",
			Type:  kernels.TypeMatMul,
			High:  i%16 == 0,
			Cost:  cost,
			Iter:  -1,
		})
	}
	fz, err := g.Freeze()
	if err != nil {
		panic(err)
	}
	return fz
}

// probeRun executes a workload of n tasks to completion with the given
// probe (nil = probes off) and returns the runtime.
func probeRun(t *testing.T, p *Probe, n int) *Runtime {
	t.Helper()
	topo := topology.TX2()
	rt, err := New(Config{Topo: topo, Model: machine.New(topo), Policy: core.DAMC(), Seed: 9, Probe: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(probeGraph(n)); err != nil {
		t.Fatal(err)
	}
	rt.Engine().Run()
	if !rt.Finished() {
		t.Fatal("run did not finish")
	}
	return rt
}

// An attached probe must be pure observation: every scheduler counter and
// every virtual-time metric must be bit-identical with and without it.
func TestProbeDoesNotPerturbRun(t *testing.T) {
	off := probeRun(t, nil, 1200)
	p := NewProbe()
	on := probeRun(t, p, 1200)

	if a, b := off.Collector().Makespan(), on.Collector().Makespan(); a != b {
		t.Fatalf("makespan diverged: off=%v on=%v", a, b)
	}
	offStats, onStats := off.CoreStats(), on.CoreStats()
	for i := range offStats {
		if offStats[i] != onStats[i] {
			t.Fatalf("core %d counters diverged: off=%+v on=%+v", i, offStats[i], onStats[i])
		}
	}
	offBusy, onBusy := off.Collector().CoreBusy(), on.Collector().CoreBusy()
	for i := range offBusy {
		if offBusy[i] != onBusy[i] {
			t.Fatalf("core %d busy diverged: off=%v on=%v", i, offBusy[i], onBusy[i])
		}
	}
	if NewProbe().Sched() != nil {
		t.Fatal("a probe that observed no run produced Sched telemetry")
	}
	if p.Sched() == nil {
		t.Fatal("probe-on run produced no Sched telemetry")
	}
}

// The steal matrix is an exact decomposition of the steal counters: the
// per-thief edge sums must equal CoreStats' per-core steal counts.
func TestProbeStealMatrixMatchesCounters(t *testing.T) {
	p := NewProbe()
	stats := probeRun(t, p, 1200).CoreStats()
	sched := p.Sched()

	perThief := make([]int64, len(stats))
	var matrixTotal int64
	for _, e := range sched.StealMatrix {
		if e.Victim < 0 || e.Victim >= len(stats) || e.Thief < 0 || e.Thief >= len(stats) {
			t.Fatalf("edge %+v outside the %d-core platform", e, len(stats))
		}
		if e.Low < 0 || e.High < 0 || e.Low+e.High == 0 {
			t.Fatalf("degenerate edge %+v", e)
		}
		perThief[e.Thief] += e.Low + e.High
		matrixTotal += e.Low + e.High
	}
	var statsTotal int64
	for i, s := range stats {
		statsTotal += s.Steals
		if perThief[i] != s.Steals {
			t.Fatalf("thief %d: matrix says %d steals, counters say %d", i, perThief[i], s.Steals)
		}
	}
	if matrixTotal != statsTotal {
		t.Fatalf("matrix total %d != counter total %d", matrixTotal, statsTotal)
	}
	// The schedule report's header prints the same total.
	var report strings.Builder
	sched.WriteReport(&report)
	if want := fmt.Sprintf("steal matrix (victim -> thief, %d steals", statsTotal); !strings.Contains(report.String(), want) {
		t.Fatalf("report does not print the counter total %d:\n%s", statsTotal, report.String())
	}
}

// The per-core time breakdown must partition the makespan: busy +
// dispatch + steal + idle = span for every core, with nothing negative.
func TestProbeTimeBreakdownPartitionsSpan(t *testing.T) {
	p := NewProbe()
	probeRun(t, p, 1200)
	sched := p.Sched()
	if sched.Span <= 0 {
		t.Fatalf("span %v, want > 0", sched.Span)
	}
	for i := range sched.Busy {
		for _, v := range []float64{sched.Busy[i], sched.Dispatch[i], sched.Steal[i], sched.Idle[i]} {
			if v < 0 {
				t.Fatalf("core %d has a negative component: busy=%v dispatch=%v steal=%v idle=%v",
					i, sched.Busy[i], sched.Dispatch[i], sched.Steal[i], sched.Idle[i])
			}
		}
		sum := sched.Busy[i] + sched.Dispatch[i] + sched.Steal[i] + sched.Idle[i]
		if math.Abs(sum-sched.Span) > 1e-9*math.Max(1, sched.Span) {
			t.Fatalf("core %d breakdown sums to %v, span is %v", i, sum, sched.Span)
		}
	}
	// Span > 0 above, so a positive ready integral is a positive mean ready.
	if sched.QueueSamples == 0 || sched.ReadySec <= 0 {
		t.Fatalf("queue telemetry empty: samples=%d readySec=%v", sched.QueueSamples, sched.ReadySec)
	}
	if sched.PTTSamples == 0 {
		t.Fatal("no PTT prediction samples on a PTT policy")
	}
}

// A probe reused across Runtime.Reset must report each run's telemetry in
// isolation: two identical runs through one probe yield identical Sched.
func TestProbeReuseAcrossReset(t *testing.T) {
	topo := topology.TX2()
	p := NewProbe()
	cfg := Config{Topo: topo, Model: machine.New(topo), Policy: core.DAMC(), Seed: 9, Probe: p}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *metrics.Sched {
		if err := rt.Start(probeGraph(600)); err != nil {
			t.Fatal(err)
		}
		rt.Engine().Run()
		return p.Sched()
	}
	first := run()
	if err := rt.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if p.Sched() != nil {
		t.Fatal("Reset kept the previous run's Sched on the probe")
	}
	second := run()

	if first == second {
		t.Fatal("flushed Sched aggregates alias the pooled probe")
	}
	if first.Span != second.Span || !slices.Equal(first.StealMatrix, second.StealMatrix) ||
		first.QueueSamples != second.QueueSamples || first.PTTSamples != second.PTTSamples {
		t.Fatalf("reused probe leaked state across Reset:\nfirst:  span=%v steals=%v qs=%d ptt=%d\nsecond: span=%v steals=%v qs=%d ptt=%d",
			first.Span, first.StealMatrix, first.QueueSamples, first.PTTSamples,
			second.Span, second.StealMatrix, second.QueueSamples, second.PTTSamples)
	}
	for i := range first.Busy {
		if first.Busy[i] != second.Busy[i] || first.Idle[i] != second.Idle[i] {
			t.Fatalf("core %d telemetry diverged across reuse", i)
		}
	}
}

// traceEvent is one event of a written Chrome trace, as the tests read it.
type traceEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Ts   float64         `json:"ts"`
	Dur  float64         `json:"dur"`
	Tid  int             `json:"tid"`
	Args json.RawMessage `json:"args"`
}

// series decodes a counter event's values by key.
func (ev *traceEvent) series(t *testing.T) map[string]float64 {
	t.Helper()
	var m map[string]float64
	if err := json.Unmarshal(ev.Args, &m); err != nil {
		t.Fatalf("counter %q args %s: %v", ev.Name, ev.Args, err)
	}
	return m
}

// eachEvent streams p's Chrome trace through a JSON decoder, handing each
// event to fn in written order, and returns the slice count the writer
// reported. The trace is decoded as it is written, never held whole.
func eachEvent(t *testing.T, p *Probe, fn func(ev *traceEvent)) int {
	t.Helper()
	pr, pw := io.Pipe()
	defer pr.Close() // a test that fails mid-trace unblocks the writer
	var n int
	written := make(chan error, 1)
	go func() {
		var err error
		n, err = p.WriteChromeTrace(pw)
		pw.CloseWithError(err)
		written <- err
	}()
	dec := json.NewDecoder(pr)
	if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
		t.Fatalf("trace opens with %v (%v), want [", tok, err)
	}
	for dec.More() {
		var ev traceEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		fn(&ev)
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim(']') {
		t.Fatalf("trace closes with %v (%v), want ]", tok, err)
	}
	io.Copy(io.Discard, pr)
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	return n
}

// The task slices are written in start order, equal starts in completion
// order, each execution as one slice per member core, contiguous and in
// core order; the counter lanes follow them, "core util" last.
func TestProbeTraceSlicesInStartOrder(t *testing.T) {
	topo := topology.TX2()
	model := machine.New(topo)
	p := NewProbe()
	rt, err := New(Config{Topo: topo, Model: model, Policy: core.DAMP(), Seed: 2, Probe: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(probeGraph(400)); err != nil {
		t.Fatal(err)
	}
	rt.Engine().Run()
	done, places := rt.Collector().Completions(), topo.Places()
	// The expected order: a stable sort of the record by start, expanded.
	order := make([]int, len(done))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(done[a].Start, done[b].Start) })
	type want struct{ core, leader, width int }
	var wants []want
	wide := 0
	for _, i := range order {
		pl := places[done[i].Place]
		for k := range pl.Width {
			wants = append(wants, want{pl.Leader + k, pl.Leader, pl.Width})
		}
		if pl.Width > 1 {
			wide++
		}
	}
	if wide == 0 {
		t.Fatal("no execution on a wide place: the run does not exercise member expansion")
	}
	k, lastTs, lanes := 0, 0.0, []string{}
	n := eachEvent(t, p, func(ev *traceEvent) {
		if ev.Ph == "X" {
			if len(lanes) > 0 {
				t.Fatalf("slice %d written after the %q lane", k, lanes[len(lanes)-1])
			}
			if ev.Ts < lastTs {
				t.Fatalf("slice %d starts at %v µs, before its predecessor's %v", k, ev.Ts, lastTs)
			}
			lastTs = ev.Ts
			w := wants[k]
			var args struct{ Place string }
			if err := json.Unmarshal(ev.Args, &args); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("(C%d,%d)", w.leader, w.width); ev.Tid != w.core || args.Place != got {
				t.Fatalf("slice %d on core %d of %s, want core %d of %s", k, ev.Tid, args.Place, w.core, got)
			}
			k++
			return
		}
		if len(lanes) == 0 || lanes[len(lanes)-1] != ev.Name {
			lanes = append(lanes, ev.Name)
		}
	})
	if n != len(wants) || k != n {
		t.Fatalf("writer reported %d slices and wrote %d, the record expands to %d", n, k, len(wants))
	}
	if lanes[len(lanes)-1] != "core util" || slices.Index(lanes, "core util") != len(lanes)-1 {
		t.Fatalf("lane order %v, want the core util lane last", lanes[max(0, len(lanes)-4):])
	}
}

// The "core util" lane has utilWindows points over the makespan, one series
// per core up to the last one any place used; each window's busy shares,
// times the window's length, add up to the core's CoreBusy.
func TestProbeTraceUtilLane(t *testing.T) {
	p := NewProbe()
	rt := probeRun(t, p, 2000)
	busy, span := rt.Collector().CoreBusy(), p.Sched().Span
	sum := make([]float64, len(busy))
	points := 0
	eachEvent(t, p, func(ev *traceEvent) {
		if ev.Name != "core util" {
			return
		}
		vals := ev.series(t)
		if len(vals) != len(busy) {
			t.Fatalf("util point has %d series, want %d", len(vals), len(busy))
		}
		for c := range busy {
			v, ok := vals["c"+strconv.Itoa(c)]
			if !ok || v < 0 || v > 1+1e-9 {
				t.Fatalf("core %d utilization %v (present %v)", c, v, ok)
			}
			sum[c] += v * (span / utilWindows)
		}
		points++
	})
	if points != utilWindows {
		t.Fatalf("%d util points, want %d", points, utilWindows)
	}
	for c, want := range busy {
		if math.Abs(sum[c]-want) > 1e-9*span {
			t.Fatalf("core %d: util lane integrates to %v, CoreBusy is %v", c, sum[c], want)
		}
	}
}

// The PTT numbers are views of the probe's one record, uncapped: on a run
// of more than 2^16 predictions the tail is the run's true last quarter,
// and its error sum is the last quarter of the "ptt rel err" lane that
// WriteChromeTrace writes from the same record.
func TestProbeTailIsLastQuarter(t *testing.T) {
	p := NewProbe()
	probeRun(t, p, 70000)
	sched := p.Sched()
	if sched.PTTSamples <= 1<<16 {
		t.Fatalf("%d predictions, want more than %d", sched.PTTSamples, 1<<16)
	}
	if want := sched.PTTSamples / 4; sched.PTTTailSamples != want {
		t.Fatalf("tail covers %d predictions, want the last quarter, %d", sched.PTTTailSamples, want)
	}
	// A counter value is written in the shortest form that reads back as
	// the same float64, so the lane's values are the records' bit for bit.
	var lane []float64
	eachEvent(t, p, func(ev *traceEvent) {
		if ev.Name == "ptt rel err" {
			lane = append(lane, ev.series(t)["err"])
		}
	})
	if int64(len(lane)) != sched.PTTSamples {
		t.Fatalf("ptt rel err lane has %d points, Sched counts %d predictions", len(lane), sched.PTTSamples)
	}
	var sum float64
	for _, e := range lane[len(lane)-int(sched.PTTTailSamples):] {
		sum += e
	}
	if sum != sched.PTTTailErrSum {
		t.Fatalf("last quarter of the lane sums to %v, PTTTailErrSum is %v", sum, sched.PTTTailErrSum)
	}
}

// The queue numbers are views of the probe's one queue record, uncapped:
// on a run of more than 2^16 transitions the "queue depth" lane has one
// point per transition, its values are the record's, and it spans the run;
// ReadySec and MaxReady recomputed from the record equal Sched's bit for
// bit. The lane's times are At·1e6, which does not round-trip to At, so the
// sums read the record's own times.
func TestProbeQueueLaneSpansTheRun(t *testing.T) {
	p := NewProbe()
	probeRun(t, p, 70000)
	sched := p.Sched()
	if sched.QueueSamples <= 1<<16 {
		t.Fatalf("%d queue transitions, want more than %d", sched.QueueSamples, 1<<16)
	}
	points := 0
	var lastStart, lastQueue float64
	eachEvent(t, p, func(ev *traceEvent) {
		switch {
		case ev.Ph == "X":
			lastStart = max(lastStart, ev.Ts)
		case ev.Name == "queue depth":
			q := p.samples[points]
			if vals := ev.series(t); vals["wsq"] != float64(q.Ready) || vals["aq"] != float64(q.Committed) {
				t.Fatalf("queue depth point %d is %v, the record holds %+v", points, vals, q)
			}
			lastQueue = ev.Ts
			points++
		}
	})
	if int64(points) != sched.QueueSamples {
		t.Fatalf("queue depth lane has %d points, Sched counts %d transitions", points, sched.QueueSamples)
	}
	var readySec, last, prev float64
	maxReady := 0
	for _, q := range p.samples {
		if q.At > last {
			readySec += prev * (q.At - last)
			last = q.At
		}
		prev = float64(q.Ready)
		maxReady = max(maxReady, int(q.Ready))
	}
	if sched.Span > last {
		readySec += prev * (sched.Span - last)
	}
	if readySec != sched.ReadySec || maxReady != sched.MaxReady {
		t.Fatalf("record gives readySec=%v maxReady=%d, Sched has %v and %d",
			readySec, maxReady, sched.ReadySec, sched.MaxReady)
	}
	if lastQueue < lastStart {
		t.Fatalf("queue lane ends at %v µs, before the last slice starts at %v µs", lastQueue, lastStart)
	}
}
