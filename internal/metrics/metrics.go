// Package metrics collects execution statistics from a simulated run: per-core
// kernel work time (paper Figure 6), priority-task place distributions
// (Figure 5), per-iteration timings and place selections (Figure 9), and
// overall throughput (Figures 4, 7, 10).
//
// A run's per-iteration statistics are one Iters value: two flat arrays
// without pointers, the iterations and all their (place, count) pairs, so a
// cell the service caches costs the garbage collector nothing to scan and
// eight bytes per pair.
package metrics

import (
	"encoding/json"
	"maps"
	"slices"
	"sort"

	"dynasym/internal/topology"
)

// maxDenseIter bounds the dense per-iteration index (well beyond the
// largest synthetic workload's layer count; ~8 MB of pointers at worst).
// Sparse tags above it fall back to a map, preserving the pre-dense
// behavior for arbitrary iteration numbers.
const maxDenseIter = 1 << 20

// Collector accumulates statistics for one run. It is not synchronized: the
// runtime that owns it records from the event engine's goroutine, and
// readers look only after the run has finished.
type Collector struct {
	topo *topology.Platform

	coreBusy []float64
	// placeAll and placeHigh count task executions per placeID. They are
	// dense slices over the platform's place table rather than maps:
	// TaskDoneID runs once per task on the simulation hot path, and a slice
	// increment is an order of magnitude cheaper than a map update.
	placeAll  []int64
	placeHigh []int64
	// byIter is indexed by iteration number (iterations are small and
	// dense in every built-in workload; nil entries are iterations never
	// seen). Aggregation uses compact (placeID, count) pairs — an
	// iteration touches few distinct places, and a linear scan over a
	// short pair slice beats a map assignment per task by a wide margin.
	// byIterSparse catches tags above maxDenseIter so arbitrary
	// iteration numbers still work. The pairs are kept ID-sorted;
	// IterStats copies them out on readout.
	byIter       []*iterAgg
	byIterSparse map[int]*iterAgg
	tasksDone    int64
	makespan     float64
	// aggFree pools retired iterAggs (and their place-pair storage) across
	// Reset cycles so pooled runtimes reach a steady state with no
	// per-iteration allocations.
	aggFree []*iterAgg
	// sched is the scheduler-introspection aggregate a probe-enabled run
	// attaches at completion (see sched.go); nil when no probe ran.
	sched *Sched
}

// iterAgg is the collector's internal per-iteration accumulator.
type iterAgg struct {
	iter       int
	tasks      int64
	start, end float64
	places     []PlaceCount
}

// PlaceCount is one (placeID, task executions) pair of an iteration. Both
// fit 32 bits: a cell runs at most 2^22 tasks (scenario.MaxCellTasks) on a
// platform of at most 2^10 cores (scenario.MaxPlatformCores).
type PlaceCount struct {
	ID, N int32
}

// newIterAgg allocates one per-iteration accumulator with its place pairs
// pre-sized so typical iterations (a few distinct places) never regrow the
// slice; the repeated doubling from zero was the collector's dominant
// allocation source on the simulation hot path.
func (c *Collector) newIterAgg(iter int, start, finish float64) *iterAgg {
	if n := len(c.aggFree); n > 0 {
		st := c.aggFree[n-1]
		c.aggFree[n-1] = nil
		c.aggFree = c.aggFree[:n-1]
		*st = iterAgg{iter: iter, start: start, end: finish, places: st.places[:0]}
		return st
	}
	return &iterAgg{
		iter:   iter,
		start:  start,
		end:    finish,
		places: make([]PlaceCount, 0, 16),
	}
}

// bump increments the count for a placeID, keeping the pairs ID-sorted: an
// iteration touches a few places, so a linear scan and a rare insert beat a
// sort on every readout.
func (a *iterAgg) bump(id int32) {
	i := 0
	for i < len(a.places) && a.places[i].ID < id {
		i++
	}
	if i == len(a.places) || a.places[i].ID != id {
		a.places = slices.Insert(a.places, i, PlaceCount{ID: id})
	}
	a.places[i].N++
}

// IterStat aggregates one application iteration (Figure 9). Its place
// counts live in the Iters that holds it (Iters.Places).
type IterStat struct {
	Iter  int
	Tasks int64
	// Start and End are the earliest task start and latest task finish
	// observed for the iteration, so End-Start approximates the
	// iteration's wall time.
	Start, End float64
	// off and n locate the iteration's pairs in Iters.pairs; Append sets
	// them.
	off, n int32
}

// Iters is a run's per-iteration statistics: the iterations in order, and
// every iteration's place counts, sorted by ID, back to back in one array.
// Neither array holds a pointer. Append is the only way to build one; the
// zero value is empty and encodes as JSON null.
type Iters struct {
	stats []IterStat
	pairs []PlaceCount
}

// Append adds an iteration with its place counts; st's own location fields
// are ignored. The pairs are copied, and a run's pairs number no more than
// its tasks, so the offsets fit 32 bits.
func (it *Iters) Append(st IterStat, pairs []PlaceCount) {
	st.off, st.n = int32(len(it.pairs)), int32(len(pairs))
	it.stats = append(it.stats, st)
	it.pairs = append(it.pairs, pairs...)
}

// Stats returns the iterations in order. The slice is the value's own.
func (it Iters) Stats() []IterStat { return it.stats }

// Places returns iteration i's place counts, sorted by ID when the collector
// built them. The slice is the value's own, capacity-limited so an append
// cannot run into the next iteration's pairs.
func (it Iters) Places(i int) []PlaceCount {
	st := it.stats[i]
	return it.pairs[st.off : st.off+st.n : st.off+st.n]
}

// NumPairs returns the number of place counts over all iterations.
func (it Iters) NumPairs() int { return len(it.pairs) }

// iterJSON is an iteration on the shard wire, its pairs inline: the format
// every peer version reads and writes.
type iterJSON struct {
	IterStat
	Places []PlaceCount
}

// MarshalJSON encodes the iterations as an array of
// {"Iter","Tasks","Start","End","Places":[{"ID","N"}]} objects.
func (it Iters) MarshalJSON() ([]byte, error) {
	if it.stats == nil {
		return []byte("null"), nil
	}
	out := make([]iterJSON, len(it.stats))
	for i, st := range it.stats {
		out[i] = iterJSON{st, it.Places(i)}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes MarshalJSON's form, rebuilding the offsets itself (a
// document would need 2^31 pairs, tens of gigabytes, to wrap them). An ID or
// N outside 32 bits is an error, never a wrapped value.
func (it *Iters) UnmarshalJSON(b []byte) error {
	var in []iterJSON
	if err := json.Unmarshal(b, &in); err != nil || in == nil {
		*it = Iters{}
		return err
	}
	total := 0
	for _, st := range in {
		total += len(st.Places)
	}
	*it = Iters{stats: make([]IterStat, 0, len(in))}
	if total > 0 { // as the collector's: no pairs, no array
		it.pairs = make([]PlaceCount, 0, total)
	}
	for _, st := range in {
		it.Append(st.IterStat, st.Places)
	}
	return nil
}

// NewCollector returns an empty collector for the platform: a Reset of the
// zero Collector.
func NewCollector(topo *topology.Platform) *Collector {
	c := &Collector{}
	c.Reset(topo)
	return c
}

// Reset empties the collector for a run on topo while reusing its storage,
// including the per-iteration accumulators, which move to a freelist for the
// next run. The platform may differ from the previous one; pooled runtimes
// rebuild their topology per run.
func (c *Collector) Reset(topo *topology.Platform) {
	c.topo = topo
	if n := topo.NumCores(); n != len(c.coreBusy) {
		c.coreBusy = make([]float64, n)
	}
	if n := len(topo.Places()); n != len(c.placeAll) {
		c.placeAll = make([]int64, n)
		c.placeHigh = make([]int64, n)
	}
	clear(c.coreBusy)
	clear(c.placeAll)
	clear(c.placeHigh)
	for i, st := range c.byIter {
		if st != nil {
			c.aggFree = append(c.aggFree, st)
			c.byIter[i] = nil
		}
	}
	c.byIter = c.byIter[:0]
	for iter, st := range c.byIterSparse {
		c.aggFree = append(c.aggFree, st)
		delete(c.byIterSparse, iter)
	}
	c.tasksDone = 0
	c.makespan = 0
	c.sched = nil
}

// TaskDoneID records one completed task execution on place pl, whose dense
// id the runtime resolved once at dispatch.
func (c *Collector) TaskDoneID(id int, pl topology.Place, high bool, iter int, start, finish float64) {
	span := finish - start
	c.tasksDone++
	c.placeAll[id]++
	if high {
		c.placeHigh[id]++
	}
	for i := 0; i < pl.Width; i++ {
		c.coreBusy[pl.Leader+i] += span
	}
	if iter >= 0 {
		var st *iterAgg
		if iter < maxDenseIter {
			for iter >= len(c.byIter) {
				c.byIter = append(c.byIter, nil)
			}
			if st = c.byIter[iter]; st == nil {
				st = c.newIterAgg(iter, start, finish)
				c.byIter[iter] = st
			}
		} else {
			if c.byIterSparse == nil {
				c.byIterSparse = make(map[int]*iterAgg)
			}
			if st = c.byIterSparse[iter]; st == nil {
				st = c.newIterAgg(iter, start, finish)
				c.byIterSparse[iter] = st
			}
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

// SetMakespan records the total execution time of the run.
func (c *Collector) SetMakespan(t float64) { c.makespan = t }

// Makespan returns the recorded total execution time.
func (c *Collector) Makespan() float64 { return c.makespan }

// TasksDone returns the number of completed tasks.
func (c *Collector) TasksDone() int64 { return c.tasksDone }

// Throughput returns completed tasks per second of makespan (the paper's
// headline metric), or 0 when no makespan was recorded.
func (c *Collector) Throughput() float64 {
	if c.makespan <= 0 {
		return 0
	}
	return float64(c.tasksDone) / c.makespan
}

// CoreBusy returns the per-core accumulated kernel work time in seconds
// (excluding runtime activity and idleness, like the paper's Figure 6).
func (c *Collector) CoreBusy() []float64 {
	return append([]float64(nil), c.coreBusy...)
}

// PlaceShare describes one execution place's share of task executions.
type PlaceShare struct {
	Place topology.Place
	Count int64
	Frac  float64
}

// PlaceHistogram returns the distribution of tasks over execution places,
// restricted to high-priority tasks when highOnly is set, sorted by
// descending count then place order. Fractions sum to 1 when any tasks
// were recorded.
func (c *Collector) PlaceHistogram(highOnly bool) []PlaceShare {
	src := c.placeAll
	if highOnly {
		src = c.placeHigh
	}
	var total int64
	out := make([]PlaceShare, 0, len(src))
	places := c.topo.Places()
	for id, n := range src {
		if n == 0 {
			continue
		}
		out = append(out, PlaceShare{Place: places[id], Count: n})
		total += n
	}
	for i := range out {
		if total > 0 {
			out[i].Frac = float64(out[i].Count) / float64(total)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Place.Leader != out[j].Place.Leader {
			return out[i].Place.Leader < out[j].Place.Leader
		}
		return out[i].Place.Width < out[j].Place.Width
	})
	return out
}

// IterStats returns the per-iteration statistics ordered by iteration, each
// with its place counts sorted by placeID. The pairs are copied in iteration
// order, so two readouts of one run are equal value for value; a run without
// sparse tags pays two allocations, whatever its iteration count.
func (c *Collector) IterStats() Iters {
	n, pairs := len(c.byIterSparse), 0
	for _, st := range c.byIterSparse {
		pairs += len(st.places)
	}
	for _, st := range c.byIter {
		if st != nil {
			n++
			pairs += len(st.places)
		}
	}
	if n == 0 {
		return Iters{stats: []IterStat{}}
	}
	out := Iters{stats: make([]IterStat, 0, n), pairs: make([]PlaceCount, 0, pairs)}
	add := func(st *iterAgg) {
		out.Append(IterStat{Iter: st.iter, Tasks: st.tasks, Start: st.start, End: st.end}, st.places)
	}
	for _, st := range c.byIter {
		if st != nil {
			add(st)
		}
	}
	if len(c.byIterSparse) > 0 { // tags above every dense one, sorted at a cost only they pay
		for _, iter := range slices.Sorted(maps.Keys(c.byIterSparse)) {
			add(c.byIterSparse[iter])
		}
	}
	return out
}

// Platform returns the platform the collector indexes places against.
func (c *Collector) Platform() *topology.Platform { return c.topo }
