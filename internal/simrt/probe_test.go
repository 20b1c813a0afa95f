package simrt

import (
	"fmt"
	"math"
	"slices"
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

// The PTT numbers are views of the probe's one record, uncapped: on a run
// of more than 2^16 predictions the tail is the run's true last quarter,
// and its error sum is the last quarter of the "ptt rel err" lane that
// Schedule renders from the same record.
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
	var lane []float64
	for _, c := range p.Schedule().Counters {
		if c.Name == "ptt rel err" {
			lane = append(lane, c.Series[0].Value)
		}
	}
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
// point per transition and spans the run, and ReadySec and MaxReady
// recomputed from it equal Sched's bit for bit.
func TestProbeQueueLaneSpansTheRun(t *testing.T) {
	p := NewProbe()
	probeRun(t, p, 70000)
	sched := p.Sched()
	if sched.QueueSamples <= 1<<16 {
		t.Fatalf("%d queue transitions, want more than %d", sched.QueueSamples, 1<<16)
	}
	schedule := p.Schedule()
	var at, ready []float64
	for _, c := range schedule.Counters {
		if c.Name == "queue depth" {
			at = append(at, c.At)
			ready = append(ready, c.Series[0].Value)
		}
	}
	if int64(len(at)) != sched.QueueSamples {
		t.Fatalf("queue depth lane has %d points, Sched counts %d transitions", len(at), sched.QueueSamples)
	}
	var readySec, last, prev float64
	maxReady := 0
	for i := range at {
		if at[i] > last {
			readySec += prev * (at[i] - last)
			last = at[i]
		}
		prev = ready[i]
		maxReady = max(maxReady, int(ready[i]))
	}
	if sched.Span > last {
		readySec += prev * (sched.Span - last)
	}
	if readySec != sched.ReadySec || maxReady != sched.MaxReady {
		t.Fatalf("lane gives readySec=%v maxReady=%d, Sched has %v and %d",
			readySec, maxReady, sched.ReadySec, sched.MaxReady)
	}
	var lastStart float64
	for _, ev := range schedule.Events {
		lastStart = max(lastStart, ev.Start)
	}
	if at[len(at)-1] < lastStart {
		t.Fatalf("queue lane ends at %v, before the last slice starts at %v", at[len(at)-1], lastStart)
	}
}
