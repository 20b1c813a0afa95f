// Package metrics derives execution statistics from a simulated run: per-core
// kernel work time (paper Figure 6), priority-task place distributions
// (Figure 5), per-iteration timings and place selections (Figure 9), and
// overall throughput (Figures 4, 7, 10).
//
// A run keeps one fact per finished task: its completion, a 24-byte entry of
// a Record. Every statistic is a view of that record, computed after the run.
//
// A run's per-iteration statistics are one Iters value: a single byte string
// of varints and raw float words, read front to back through an IterCursor.
// It costs the garbage collector nothing to scan and, with the record's
// ascending iterations and place IDs and its counts of 1, about one byte per
// (place, count) pair.
package metrics

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"

	"dynasym/internal/dag"
	"dynasym/internal/topology"
)

// Completion is one entry of a run's completion record: one finished
// assembly of the task with index Task in the run's frozen graph, on the
// place with dense id Place in the platform's place table, from Start to
// Finish in virtual time. It holds no pointer.
type Completion struct {
	Place, Task   int32
	Start, Finish float64
}

// Record is a run's completion record: one Completion per finished assembly,
// in completion order, with the graph and platform its ids index. Every
// statistic a run reports is a view of it, computed after the run from the
// operands running totals would have summed, in the same order, so each view
// is bit-identical to them. It is not synchronized: its runtime appends from
// the event engine's goroutine, and readers look after the run.
type Record struct {
	topo *topology.Platform
	fz   *dag.Frozen
	done []Completion

	// The views' scratch, kept across runs: counts has one entry per place,
	// all zero between views; iterEnd and order hold IterStats' counting
	// sort, ids and pairs one iteration's places, enc its encoding.
	counts, iterEnd, order, ids []int32
	pairs                       []PlaceCount
	enc                         []byte
}

// keepEntries bounds the record kept between runs, at 24 bytes an entry: a
// graph of up to this many tasks (the paper's largest cells have 32 000)
// reuses its record, and a larger one's record goes at the next Reset.
const keepEntries = 1 << 15

// Reset empties the record for a run of fz (nil before the graph is known) on
// topo, sized so that tasks completions never grow it. It keeps its storage
// unless that is too small, or larger than both tasks and keepEntries.
func (r *Record) Reset(topo *topology.Platform, fz *dag.Frozen, tasks int) {
	r.topo, r.fz = topo, fz
	if n := len(topo.Places()); len(r.counts) != n {
		r.counts = make([]int32, n)
	}
	if c := cap(r.done); c < tasks || c > max(tasks, keepEntries) {
		r.done = make([]Completion, 0, tasks)
		r.order, r.iterEnd = nil, nil
	}
	r.done = r.done[:0]
}

// Add appends one completion.
func (r *Record) Add(c Completion) { r.done = append(r.done, c) }

// Completions returns the record's entries, in completion order. The slice
// is the record's own, valid until its next Reset.
func (r *Record) Completions() []Completion { return r.done }

// PlaceCount is one (placeID, task executions) pair of an iteration. Both
// fit 32 bits: a cell runs at most 2^22 tasks (scenario.maxCellTasks) on a
// platform of at most 2^10 cores (scenario.maxPlatformCores).
type PlaceCount struct {
	ID, N int32
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
// where a varint is zigzag-encoded (binary.AppendVarint), so negative or
// unsorted values come back exactly. The record's ascending
// IDs and its counts of 1, nearly every pair it writes, take one byte a pair,
// and an iteration with one task per pair spends nothing on Tasks. Append
// builds one and an IterCursor reads it. The zero value is empty.
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

// Cursor returns a cursor before the first iteration.
func (it Iters) Cursor() IterCursor { return IterCursor{b: it.b} }

// IterCursor reads an Iters front to back without allocating: Next moves to
// an iteration and Stat returns it; Places returns its place counts a
// bufferful at a time, in the order they were appended (ID-sorted when the
// record built them), while Pairs says how many are left.
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
// [−32, 31], nearly every pair the record writes, is one byte.
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

// Makespan returns the run's total execution time: the finish of its last
// completion, 0 for a run with none.
func (r *Record) Makespan() float64 {
	if len(r.done) == 0 {
		return 0
	}
	return r.done[len(r.done)-1].Finish
}

// TasksDone returns the number of completed tasks.
func (r *Record) TasksDone() int64 { return int64(len(r.done)) }

// Throughput returns completed tasks per second of makespan (the paper's
// headline metric), or 0 when the makespan is 0.
func (r *Record) Throughput() float64 {
	if m := r.Makespan(); m > 0 {
		return float64(r.TasksDone()) / m
	}
	return 0
}

// CoreBusy returns the per-core kernel work time in seconds (excluding
// runtime activity and idleness, like the paper's Figure 6): each
// completion's span added to every member core, in completion order.
func (r *Record) CoreBusy() []float64 {
	busy := make([]float64, r.topo.NumCores())
	places := r.topo.Places()
	for _, c := range r.done {
		pl, span := places[c.Place], c.Finish-c.Start
		for i := 0; i < pl.Width; i++ {
			busy[pl.Leader+i] += span
		}
	}
	return busy
}

// PlaceShare describes one execution place's share of task executions.
type PlaceShare struct {
	Place topology.Place
	Count int64
	Frac  float64
}

// PlaceHistogram returns the distribution of high-priority tasks over
// execution places in ComparePlaceShares order. Fractions sum to 1 when any
// were recorded. The result is one allocation of exactly its length: a run
// touches only some of its platform's places.
func (r *Record) PlaceHistogram() []PlaceShare {
	counts := r.counts
	nz, total := 0, int64(0)
	for _, c := range r.done {
		if r.fz.High(int(c.Task)) {
			if counts[c.Place]++; counts[c.Place] == 1 {
				nz++
			}
			total++
		}
	}
	out := make([]PlaceShare, 0, nz)
	places := r.topo.Places()
	for id, n := range counts {
		if n != 0 {
			out = append(out, PlaceShare{Place: places[id], Count: int64(n), Frac: float64(n) / float64(total)})
			counts[id] = 0
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

// IterStats returns the per-iteration statistics ordered by iteration (tasks
// with Iter < 0 are in none), each with its place counts sorted by placeID.
// A stable counting sort by iteration keeps completion order within each. It
// encodes into the record's scratch and copies that out at its exact size:
// one allocation, whatever the iteration count.
func (r *Record) IterStats() Iters {
	// iterEnd[it+1] counts iteration it's completions; after the prefix sum,
	// placing each completion moves iterEnd[it] from its start to its end.
	iterEnd := r.iterEnd[:0]
	for _, c := range r.done {
		if it := r.fz.Task(int(c.Task)).Iter; it >= 0 {
			for len(iterEnd) <= it+1 {
				iterEnd = append(iterEnd, 0)
			}
			iterEnd[it+1]++
		}
	}
	for it := 1; it < len(iterEnd); it++ {
		iterEnd[it] += iterEnd[it-1]
	}
	r.order = slices.Grow(r.order[:0], len(r.done))
	order := r.order[:len(r.done)]
	for k, c := range r.done {
		if it := r.fz.Task(int(c.Task)).Iter; it >= 0 {
			order[iterEnd[it]] = int32(k)
			iterEnd[it]++
		}
	}
	counts := r.counts
	out := Iters{b: r.enc[:0]}
	from := int32(0)
	for it := 0; it+1 < len(iterEnd); it++ {
		seg := order[from:iterEnd[it]]
		from = iterEnd[it]
		if len(seg) == 0 {
			continue
		}
		first := r.done[seg[0]]
		st := IterStat{Iter: it, Tasks: int64(len(seg)), Start: first.Start, End: first.Finish}
		ids := r.ids[:0] // the places the iteration used
		for _, k := range seg {
			c := r.done[k]
			if c.Start < st.Start {
				st.Start = c.Start
			}
			if c.Finish > st.End {
				st.End = c.Finish
			}
			if counts[c.Place]++; counts[c.Place] == 1 {
				ids = append(ids, c.Place)
			}
		}
		slices.Sort(ids)
		pairs := r.pairs[:0]
		for _, id := range ids {
			pairs = append(pairs, PlaceCount{ID: id, N: counts[id]})
			counts[id] = 0
		}
		out.Append(st, pairs)
		r.ids, r.pairs = ids, pairs
	}
	r.iterEnd, r.enc = iterEnd, out.b
	out.b = append(make([]byte, 0, len(out.b)), out.b...)
	return out
}
