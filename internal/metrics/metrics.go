// Package metrics collects execution statistics from a simulated run: per-core
// kernel work time (paper Figure 6), priority-task place distributions
// (Figure 5), per-iteration timings and place selections (Figure 9), and
// overall throughput (Figures 4, 7, 10).
//
// A run's per-iteration statistics are one Iters value: a single byte string
// of varints and raw float words, read front to back through an IterCursor.
// A cell the service caches therefore costs the garbage collector nothing to
// scan and, with the collector's ascending iterations and place IDs and its
// counts of 1, about one byte per (place, count) pair.
package metrics

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"

	"dynasym/internal/topology"
)

// Collector accumulates statistics for one run. It is not synchronized: the
// runtime that owns it records from the event engine's goroutine, and
// readers look only after the run has finished.
type Collector struct {
	topo *topology.Platform

	coreBusy []float64
	// placeHigh counts high-priority task executions per placeID. It is a
	// dense slice over the platform's place table rather than a map:
	// TaskDoneID runs once per task on the simulation hot path, and a slice
	// increment is an order of magnitude cheaper than a map update.
	placeHigh []int64
	// byIter is indexed by iteration number; nil entries are iterations
	// never seen. Every builder tags a task with an iteration below its
	// graph's task count (imported DAGs carry no tags), so the index is
	// never longer than the cell's task count. Aggregation uses compact
	// (placeID, count) pairs — an iteration touches few distinct places,
	// and a linear scan over a short pair slice beats a map assignment per
	// task by a wide margin. The pairs are kept ID-sorted; IterStats
	// encodes them on readout.
	byIter    []*iterAgg
	tasksDone int64
	makespan  float64
	// aggFree pools retired iterAggs (and their place-pair storage) across
	// Reset cycles so pooled runtimes reach a steady state with no
	// per-iteration allocations.
	aggFree []*iterAgg
	// scratch is where IterStats encodes a readout before copying it out at
	// its exact size; it keeps its storage across Reset cycles.
	scratch []byte
}

// iterAgg is the collector's internal per-iteration accumulator.
type iterAgg struct {
	iter       int
	tasks      int64
	start, end float64
	places     []PlaceCount
}

// PlaceCount is one (placeID, task executions) pair of an iteration. Both
// fit 32 bits: a cell runs at most 2^22 tasks (scenario.maxCellTasks) on a
// platform of at most 2^10 cores (scenario.maxPlatformCores).
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

// IterStat aggregates one application iteration (Figure 9). An IterCursor
// reads it from an Iters, its place counts after it.
type IterStat struct {
	Iter  int
	Tasks int64
	// Start and End are the earliest task start and latest task finish
	// observed for the iteration, so End-Start approximates the
	// iteration's wall time.
	Start, End float64
}

// Iters is a run's per-iteration statistics, encoded in one byte string that
// holds no pointer. Each iteration is written as
//
//	varint   Iter less the previous iteration's (0 before the first)
//	uvarint  npairs<<1 | 1 when Tasks == npairs, npairs<<1 otherwise, where
//	         npairs is the number of (place, count) pairs that follow
//	varint   Tasks, only when the low bit above is 0
//	8 bytes  Start, IEEE-754 bits, little-endian
//	8 bytes  End, likewise
//
// and then each pair as
//
//	uvarint  zigzag(ΔID)<<1 | 1 when N == 1, zigzag(ΔID)<<1 otherwise, where
//	         ΔID is ID less the previous pair's in the iteration (0 before
//	         the first), an int32 difference
//	varint   N, only when the low bit above is 0
//
// where a varint is zigzag-encoded (binary.AppendVarint), so a peer's
// negative or unsorted values come back exactly. The collector's ascending
// IDs and its counts of 1, nearly every pair it writes, take one byte a pair,
// and an iteration with one task per pair spends nothing on Tasks. Append
// builds one and an IterCursor reads it. The zero value is empty and encodes
// as JSON null.
type Iters struct {
	b            []byte
	iters, pairs int
	last         int // the last iteration's Iter: the next Append's delta base
}

// Append adds an iteration with its place counts, in the order given.
func (it *Iters) Append(st IterStat, pairs []PlaceCount) {
	b := binary.AppendVarint(it.b, int64(st.Iter-it.last))
	b = appendFlagged(b, uint64(len(pairs)), st.Tasks == int64(len(pairs)), st.Tasks)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(st.Start))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(st.End))
	var id int32
	for _, pc := range pairs {
		d := pc.ID - id // zigzag-encoded below, as binary.AppendVarint would
		b = appendFlagged(b, uint64(uint32(d<<1^d>>31)), pc.N == 1, int64(pc.N))
		id = pc.ID
	}
	it.b, it.last = b, st.Iter
	it.iters++
	it.pairs += len(pairs)
}

// appendFlagged appends u<<1 | 1 when implied holds; otherwise u<<1 and then
// v, a varint.
func appendFlagged(b []byte, u uint64, implied bool, v int64) []byte {
	if implied {
		return binary.AppendUvarint(b, u<<1|1)
	}
	return binary.AppendVarint(binary.AppendUvarint(b, u<<1), v)
}

// Counts returns the number of iterations and of place counts over all of
// them.
func (it Iters) Counts() (iters, pairs int) { return it.iters, it.pairs }

// SizeBytes returns the heap bytes the value holds: its encoding's capacity.
func (it Iters) SizeBytes() int { return cap(it.b) }

// Cursor returns a cursor before the first iteration.
func (it Iters) Cursor() IterCursor { return IterCursor{b: it.b} }

// IterCursor reads an Iters front to back without allocating: Next moves to
// an iteration and Stat returns it; Places returns its place counts a
// bufferful at a time, in the order they were appended (ID-sorted when the
// collector built them), while Pairs says how many are left.
type IterCursor struct {
	b    []byte
	off  int // the read position in b
	st   IterStat
	id   int32 // the last decoded pair's ID: the next one's delta base
	rest int   // pairs of st not decoded yet
	buf  [32]PlaceCount
}

// Next skips the current iteration's unread pairs and moves to the next
// iteration, reporting whether there was one.
func (c *IterCursor) Next() bool {
	for c.rest > 0 {
		c.Places()
	}
	if c.off == len(c.b) {
		return false
	}
	var u uint64
	u, c.off = uvarint(c.b, c.off)
	c.st.Iter += int(unzigzag(u))
	u, c.off = uvarint(c.b, c.off)
	c.rest, c.id = int(u>>1), 0
	c.st.Tasks = int64(c.rest)
	if u&1 == 0 {
		u, c.off = uvarint(c.b, c.off)
		c.st.Tasks = unzigzag(u)
	}
	c.st.Start = math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.st.End = math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off+8:]))
	c.off += 16
	return true
}

// Stat returns the current iteration.
func (c *IterCursor) Stat() IterStat { return c.st }

// Pairs returns how many of the current iteration's place counts Places has
// not returned yet.
func (c *IterCursor) Pairs() int { return c.rest }

// Places returns the current iteration's next place counts, as many as the
// cursor's buffer holds, and none once Pairs is 0. The slice is the cursor's
// own until its next call. A pair whose count is 1 and whose ID delta is in
// [−32, 31], nearly every pair the collector writes, is one byte.
func (c *IterCursor) Places() []PlaceCount {
	n := min(c.rest, len(c.buf))
	b, off, id := c.b, c.off, c.id
	for i := range c.buf[:n] {
		u := uint64(b[off])
		if u < 0x80 {
			off++
		} else {
			u, off = uvarint(b, off)
		}
		id += int32(unzigzag(u >> 1))
		pc := PlaceCount{ID: id, N: 1}
		if u&1 == 0 {
			u, off = uvarint(b, off)
			pc.N = int32(unzigzag(u))
		}
		c.buf[i] = pc
	}
	c.off, c.id, c.rest = off, id, c.rest-n
	return c.buf[:n]
}

// uvarint reads the uvarint at b[off:] and returns it with the offset past
// it.
func uvarint(b []byte, off int) (uint64, int) {
	if x := b[off]; x < 0x80 {
		return uint64(x), off + 1
	}
	v, n := binary.Uvarint(b[off:])
	return v, off + n
}

// unzigzag undoes binary.AppendVarint's zigzag encoding.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// iterJSON is an iteration on the shard wire, its pairs inline: the format
// every peer version reads and writes.
type iterJSON struct {
	IterStat
	Places []PlaceCount
}

// MarshalJSON encodes the iterations as an array of
// {"Iter","Tasks","Start","End","Places":[{"ID","N"}]} objects. An iteration
// without pairs has "Places":[] — or null, when the whole value has no pair:
// the bytes every peer version writes for those values.
func (it Iters) MarshalJSON() ([]byte, error) {
	if it.b == nil {
		return []byte("null"), nil
	}
	out := make([]iterJSON, 0, it.iters)
	var pairs []PlaceCount
	if it.pairs > 0 {
		pairs = make([]PlaceCount, 0, it.pairs)
	}
	c := it.Cursor()
	for c.Next() {
		from := len(pairs)
		for c.Pairs() > 0 {
			pairs = append(pairs, c.Places()...)
		}
		out = append(out, iterJSON{c.Stat(), pairs[from:]})
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes MarshalJSON's form into an encoding of exactly its
// length. An ID or N outside 32 bits is an error, never a wrapped value.
func (it *Iters) UnmarshalJSON(b []byte) error {
	var in []iterJSON
	if err := json.Unmarshal(b, &in); err != nil || in == nil {
		*it = Iters{}
		return err
	}
	var out Iters
	for _, st := range in {
		out.Append(st.IterStat, st.Places)
	}
	out.b = exact(out.b)
	*it = out
	return nil
}

// exact copies b into a new array of its length; an empty b gives an empty,
// non-nil slice, which encodes as [] rather than null.
func exact(b []byte) []byte { return append(make([]byte, 0, len(b)), b...) }

// Reset empties the collector for a run on topo while reusing its storage,
// including the per-iteration accumulators, which move to a freelist for the
// next run. The platform may differ from the previous one; pooled runtimes
// rebuild their topology per run.
func (c *Collector) Reset(topo *topology.Platform) {
	c.topo = topo
	if n := topo.NumCores(); n != len(c.coreBusy) {
		c.coreBusy = make([]float64, n)
	}
	if n := len(topo.Places()); n != len(c.placeHigh) {
		c.placeHigh = make([]int64, n)
	}
	clear(c.coreBusy)
	clear(c.placeHigh)
	for i, st := range c.byIter {
		if st != nil {
			c.aggFree = append(c.aggFree, st)
			c.byIter[i] = nil
		}
	}
	c.byIter = c.byIter[:0]
	c.tasksDone = 0
	c.makespan = 0
}

// TaskDoneID records one completed task execution on place pl, whose dense
// id the runtime resolved once at dispatch.
func (c *Collector) TaskDoneID(id int, pl topology.Place, high bool, iter int, start, finish float64) {
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
			st = c.newIterAgg(iter, start, finish)
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

// PlaceHistogram returns the distribution of high-priority tasks over
// execution places in ComparePlaceShares order. Fractions sum to 1 when any
// were recorded. The result is one allocation of exactly its length: a cached
// cell keeps it, and a run touches only some of its platform's places.
func (c *Collector) PlaceHistogram() []PlaceShare {
	nz, total := 0, int64(0)
	for _, n := range c.placeHigh {
		if n != 0 {
			nz, total = nz+1, total+n
		}
	}
	out := make([]PlaceShare, 0, nz)
	places := c.topo.Places()
	for id, n := range c.placeHigh {
		if n != 0 {
			out = append(out, PlaceShare{Place: places[id], Count: n, Frac: float64(n) / float64(total)})
		}
	}
	slices.SortFunc(out, ComparePlaceShares)
	return out
}

// ComparePlaceShares orders place shares by descending count, then by place
// (leader, then width): the order of every place histogram.
func ComparePlaceShares(a, b PlaceShare) int {
	return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Place.Leader, b.Place.Leader), cmp.Compare(a.Place.Width, b.Place.Width))
}

// IterStats returns the per-iteration statistics ordered by iteration, each
// with its place counts sorted by placeID. It encodes them into the
// collector's scratch and copies that out at its exact size, so two readouts
// of one run are equal and a readout pays one allocation, whatever its
// iteration count.
func (c *Collector) IterStats() Iters {
	out := Iters{b: c.scratch[:0]}
	for _, st := range c.byIter {
		if st != nil {
			out.Append(IterStat{Iter: st.iter, Tasks: st.tasks, Start: st.start, End: st.end}, st.places)
		}
	}
	c.scratch = out.b
	out.b = exact(out.b)
	return out
}
