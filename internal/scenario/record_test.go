package scenario

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dag"
	"dynasym/internal/dagio"
	"dynasym/internal/metrics"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

// refCollector is the running-total aggregation a run's statistics were kept
// in before they became views of its completion record: a per-core busy sum,
// a per-place count of high-priority tasks, and per-iteration accumulators
// whose place pairs stay ID-sorted by insertion. It is kept as the reference
// the record's views are held to: replayed over a run's record in completion
// order, it must give every view bit for bit.
type refCollector struct {
	topo      *topology.Platform
	coreBusy  []float64
	placeHigh []int64
	byIter    []*refIter
	tasksDone int64
	makespan  float64
}

type refIter struct {
	iter       int
	tasks      int64
	start, end float64
	places     []metrics.PlaceCount
}

// bump increments the count for a place id, keeping the pairs ID-sorted.
func (a *refIter) bump(id int32) {
	i := 0
	for i < len(a.places) && a.places[i].ID < id {
		i++
	}
	if i == len(a.places) || a.places[i].ID != id {
		a.places = slices.Insert(a.places, i, metrics.PlaceCount{ID: id})
	}
	a.places[i].N++
}

// replay runs the running totals over a run's completion record.
func replay(topo *topology.Platform, fz *dag.Frozen, done []metrics.Completion) *refCollector {
	c := &refCollector{topo: topo, coreBusy: make([]float64, topo.NumCores()), placeHigh: make([]int64, len(topo.Places()))}
	for _, e := range done {
		c.taskDone(int(e.Place), topo.Places()[e.Place], fz.High(int(e.Task)), fz.Task(int(e.Task)).Iter, e.Start, e.Finish)
		c.makespan = e.Finish // the last completion sets the makespan
	}
	return c
}

func (c *refCollector) taskDone(id int, pl topology.Place, high bool, iter int, start, finish float64) {
	span := finish - start
	c.tasksDone++
	if high {
		c.placeHigh[id]++
	}
	for i := 0; i < pl.Width; i++ {
		c.coreBusy[pl.Leader+i] += span
	}
	if iter >= 0 {
		for iter >= len(c.byIter) {
			c.byIter = append(c.byIter, nil)
		}
		st := c.byIter[iter]
		if st == nil {
			st = &refIter{iter: iter, start: start, end: finish}
			c.byIter[iter] = st
		}
		st.tasks++
		if start < st.start {
			st.start = start
		}
		if finish > st.end {
			st.end = finish
		}
		st.bump(int32(id))
	}
}

func (c *refCollector) throughput() float64 {
	if c.makespan <= 0 {
		return 0
	}
	return float64(c.tasksDone) / c.makespan
}

func (c *refCollector) placeHistogram() []metrics.PlaceShare {
	var total int64
	for _, n := range c.placeHigh {
		total += n
	}
	var out []metrics.PlaceShare
	for id, n := range c.placeHigh {
		if n != 0 {
			out = append(out, metrics.PlaceShare{Place: c.topo.Places()[id], Count: n, Frac: float64(n) / float64(total)})
		}
	}
	slices.SortFunc(out, metrics.ComparePlaceShares)
	return out
}

func (c *refCollector) iterStats() metrics.Iters {
	var out metrics.Iters
	for _, st := range c.byIter {
		if st != nil {
			out.Append(metrics.IterStat{Iter: st.iter, Tasks: st.tasks, Start: st.start, End: st.end}, st.places)
		}
	}
	return out
}

// iterFacts reads an Iters front to back: each iteration's statistics with
// its times as bits, and its place counts.
func iterFacts(it metrics.Iters) (stats [][4]uint64, pairs [][]metrics.PlaceCount) {
	c := it.Cursor()
	for c.Next() {
		st := c.Stat()
		stats = append(stats, [4]uint64{uint64(st.Iter), uint64(st.Tasks), math.Float64bits(st.Start), math.Float64bits(st.End)})
		var ps []metrics.PlaceCount
		for c.Pairs() > 0 {
			ps = append(ps, c.Places()...)
		}
		pairs = append(pairs, ps)
	}
	return stats, pairs
}

// sameFloats reports whether a and b hold the same bits, element for element.
func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkAgainstReference fails t unless every view of rec equals the running
// totals replayed over it, comparing floats by bits.
func checkAgainstReference(t *testing.T, what string, topo *topology.Platform, fz *dag.Frozen, rec *metrics.Record) {
	t.Helper()
	ref := replay(topo, fz, rec.Completions())
	if rec.TasksDone() != ref.tasksDone || rec.TasksDone() != int64(len(fz.AppendPending(nil))) {
		t.Errorf("%s: TasksDone %d, reference %d", what, rec.TasksDone(), ref.tasksDone)
	}
	if !sameFloats([]float64{rec.Makespan(), rec.Throughput()}, []float64{ref.makespan, ref.throughput()}) {
		t.Errorf("%s: makespan/throughput %v/%v, reference %v/%v", what, rec.Makespan(), rec.Throughput(), ref.makespan, ref.throughput())
	}
	if busy := rec.CoreBusy(); !sameFloats(busy, ref.coreBusy) {
		t.Errorf("%s: CoreBusy %v, reference %v", what, busy, ref.coreBusy)
	}
	hist, want := rec.PlaceHistogram(), ref.placeHistogram()
	if !slices.EqualFunc(hist, want, func(a, b metrics.PlaceShare) bool {
		return a.Place == b.Place && a.Count == b.Count && math.Float64bits(a.Frac) == math.Float64bits(b.Frac)
	}) {
		t.Errorf("%s: HighHist %+v, reference %+v", what, hist, want)
	}
	gotStats, gotPairs := iterFacts(rec.IterStats())
	wantStats, wantPairs := iterFacts(ref.iterStats())
	if !reflect.DeepEqual(gotStats, wantStats) || !reflect.DeepEqual(gotPairs, wantPairs) {
		t.Errorf("%s: Iters %v %v, reference %v %v", what, gotStats, gotPairs, wantStats, wantPairs)
	}
}

// TestRecordViewsMatchRunningTotals holds every view of a run's completion
// record to the running totals it replaced, field for field and float bit
// for float bit: every Table-1 policy, on a synthetic, a K-means, a Cholesky
// DAG and a distributed Heat workload, under no disturbance, DVFS, bursts
// and a throttle ramp, probed and unprobed (Heat cells run no probe).
func TestRecordViewsMatchRunningTotals(t *testing.T) {
	kinds := []struct {
		name     string
		platform string
		w        WorkloadSpec
	}{
		{"synthetic", "tx2", WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{Kernel: workloads.MatMul, Tasks: 240, Parallelism: 4}}},
		{"kmeans", "tx2", WorkloadSpec{Kind: KMeans, KMeans: workloads.KMeansConfig{N: 400, K: 3, Grains: 8, MaxIters: 3}}},
		{"cholesky", "tx2", WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 5}}},
		{"heat", "haswell-node", WorkloadSpec{Kind: HeatDist, Heat: smallHeat(2)}},
	}
	disturbances := map[string][]Disturbance{
		"none":     nil,
		"dvfs":     {{Kind: dvfs, Cluster: 0, HiHz: 2.035e9, LoHz: 3.45e8, HiDur: 0.004, LoDur: 0.004}},
		"burst":    {{Kind: Burst, Cluster: 0, Share: 0.4, BusyDur: 0.002, IdleDur: 0.004, PhaseStep: 0.001}},
		"throttle": {{Kind: Throttle, Cluster: 0, From: 0.001, To: 0.02, Floor: 0.3}},
	}
	for _, k := range kinds {
		for dname, d := range disturbances {
			for _, probe := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/probe=%v", k.name, dname, probe)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					p, err := NewPlan(Spec{
						Name:     "record-views",
						Platform: PlatformSpec{Preset: k.platform},
						Workload: k.w,
						Disturb:  d,
						Policies: core.All(),
						Seed:     5,
						Probe:    probe,
					})
					if err != nil {
						t.Fatal(err)
					}
					models, err := p.machineModels()
					if err != nil {
						t.Fatal(err)
					}
					compiled, _, err := p.variants()
					if err != nil {
						t.Fatal(err)
					}
					st := NewCellState()
					for _, c := range p.Cells {
						if _, err := p.RunCellState(st, c); err != nil {
							t.Fatal(err)
						}
						graphs, err := compiled[c.Point].nodeGraphs()
						if err != nil {
							t.Fatal(err)
						}
						for node, rt := range st.rts[:len(models)] {
							what := fmt.Sprintf("%s node %d", p.CellLabel(c), node)
							checkAgainstReference(t, what, models[node].Platform(), graphs[node], rt.Collector())
						}
					}
				})
			}
		}
	}
}
