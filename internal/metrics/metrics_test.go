package metrics

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"dynasym/internal/dag"
	"dynasym/internal/topology"
)

// recorder builds a completion record the way a runtime does: each taskDone
// adds a task with the given priority and iteration to a graph, and its
// completion on place pl, in order, to the record's entries.
type recorder struct {
	topo *topology.Platform
	g    *dag.Graph
	done []Completion
}

func newRecorder(topo *topology.Platform) *recorder {
	return &recorder{topo: topo, g: dag.New()}
}

func (rc *recorder) taskDone(pl topology.Place, high bool, iter int, start, finish float64) {
	task := rc.g.Add(dag.Task{Label: "t", High: high, Iter: iter})
	rc.done = append(rc.done, Completion{Place: int32(rc.topo.PlaceID(pl)), Task: task, Start: start, Finish: finish})
}

// record freezes the graph and appends the completions to a Record sized at
// their count, as a runtime's Start and completions do.
func (rc *recorder) record(t testing.TB) *Record {
	t.Helper()
	fz, err := rc.g.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	r := &Record{}
	r.Reset(rc.topo, fz, len(rc.done))
	for _, c := range rc.done {
		r.Add(c)
	}
	return r
}

// unpack reads it through a cursor: the iterations in order and each one's
// place counts.
func unpack(it Iters) (stats []IterStat, places [][]PlaceCount) {
	c := it.Cursor()
	for c.Next() {
		stats = append(stats, c.Stat())
		var pairs []PlaceCount
		for c.Pairs() > 0 {
			pairs = append(pairs, c.Places()...)
		}
		places = append(places, pairs)
	}
	return stats, places
}

// The makespan is the last completion's finish, and throughput the task
// count over it.
func TestThroughputAndMakespan(t *testing.T) {
	rc := newRecorder(topology.TX2())
	for i := 0; i < 10; i++ {
		rc.taskDone(topology.Place{Leader: 0, Width: 1}, false, -1, float64(i)+0.5, float64(i)+1)
	}
	c := rc.record(t)
	if c.TasksDone() != 10 {
		t.Fatalf("tasks = %d", c.TasksDone())
	}
	if got := c.Throughput(); got != 1 {
		t.Fatalf("throughput = %g, want 1", got)
	}
	if c.Makespan() != 10 {
		t.Fatalf("makespan = %g", c.Makespan())
	}
}

func TestCoreBusyAccumulatesPerMember(t *testing.T) {
	rc := newRecorder(topology.TX2())
	rc.taskDone(topology.Place{Leader: 2, Width: 4}, false, -1, 0, 2)
	busy := rc.record(t).CoreBusy()
	for core := 2; core <= 5; core++ {
		if busy[core] != 2 {
			t.Fatalf("core %d busy %g, want 2", core, busy[core])
		}
	}
	if busy[0] != 0 || busy[1] != 0 {
		t.Fatal("non-member cores accumulated time")
	}
}

// TestPlaceHistogram: the histogram counts high-priority tasks only, orders
// them by count then place, and holds exactly its entries.
func TestPlaceHistogram(t *testing.T) {
	rc := newRecorder(topology.TX2())
	hi := topology.Place{Leader: 1, Width: 1}
	wide := topology.Place{Leader: 2, Width: 2}
	lo := topology.Place{Leader: 0, Width: 1}
	for i := 0; i < 3; i++ {
		rc.taskDone(hi, true, -1, 0, 1)
	}
	rc.taskDone(wide, true, -1, 0, 1)
	rc.taskDone(lo, false, -1, 0, 1)
	rc.taskDone(lo, false, -1, 0, 1)
	c := rc.record(t)
	high := c.PlaceHistogram()
	want := []PlaceShare{{Place: hi, Count: 3, Frac: 0.75}, {Place: wide, Count: 1, Frac: 0.25}}
	if !slices.Equal(high, want) {
		t.Fatalf("high hist = %+v, want %+v", high, want)
	}
	if cap(high) != len(high) {
		t.Fatalf("the histogram holds %d slots for %d entries", cap(high), len(high))
	}
	if again := c.PlaceHistogram(); !slices.Equal(again, want) {
		t.Fatalf("a second readout = %+v, want %+v", again, want)
	}
	if empty := newRecorder(topology.TX2()).record(t).PlaceHistogram(); len(empty) != 0 {
		t.Fatalf("a run without high-priority tasks has histogram %+v", empty)
	}
}

// TestPlaceHistogramAllocs: a readout on a 32-core platform is its one
// exact-size result (it was four: the result plus sort.Slice's three).
func TestPlaceHistogramAllocs(t *testing.T) {
	rc := newRecorder(topology.ScaleOut(4, 8))
	places := rc.topo.Places()
	for id := 0; id < len(places); id += 2 {
		for range id%5 + 1 {
			rc.taskDone(places[id], true, -1, 0, 1)
		}
	}
	c := rc.record(t)
	var h []PlaceShare
	allocs := testing.AllocsPerRun(20, func() { h = c.PlaceHistogram() })
	if want := (len(places) + 1) / 2; len(h) != want || !slices.IsSortedFunc(h, ComparePlaceShares) {
		t.Fatalf("readout = %+v, want %d entries in ComparePlaceShares order", h, want)
	}
	if allocs > 1 {
		t.Errorf("PlaceHistogram costs %.0f allocs/op, want <= 1", allocs)
	}
}

// count returns an iteration's task count on place pl, 0 when it never ran
// there.
func count(pairs []PlaceCount, pl topology.Place, topo *topology.Platform) int32 {
	for _, pc := range pairs {
		if int(pc.ID) == topo.PlaceID(pl) {
			return pc.N
		}
	}
	return 0
}

func TestIterStats(t *testing.T) {
	rc := newRecorder(topology.TX2())
	rc.taskDone(topology.Place{Leader: 0, Width: 1}, false, 1, 2.0, 2.5)
	rc.taskDone(topology.Place{Leader: 1, Width: 1}, false, 1, 1.5, 2.2)
	rc.taskDone(topology.Place{Leader: 0, Width: 1}, false, 0, 0.0, 1.0)
	st, places := unpack(rc.record(t).IterStats())
	if len(st) != 2 || st[0].Iter != 0 || st[1].Iter != 1 {
		t.Fatalf("iters = %+v", st)
	}
	if st[1].Start != 1.5 || st[1].End != 2.5 || st[1].Tasks != 2 {
		t.Fatalf("iter 1 = %+v", st[1])
	}
	if count(places[1], topology.Place{Leader: 0, Width: 1}, rc.topo) != 1 {
		t.Fatal("iter place counts wrong")
	}
}

// IterStats hands the place counts out ID-sorted, whatever order the places
// were first used in, all in one encoding of exactly its length whose counts
// match what the cursor reads.
func TestIterStatsPlacesSortedSharedBacking(t *testing.T) {
	rc := newRecorder(topology.TX2())
	topo := rc.topo
	wide, lead2, lead0 := topology.Place{Leader: 2, Width: 4}, topology.Place{Leader: 2, Width: 1}, topology.Place{Leader: 0, Width: 1}
	for _, pl := range []topology.Place{wide, lead0, lead2, wide} { // iteration 0: highest id first
		rc.taskDone(pl, false, 0, 0, 1)
	}
	rc.taskDone(lead2, false, 1, 1, 2)
	rc.taskDone(lead0, false, 1, 1, 2)
	it := rc.record(t).IterStats()
	stats, places := unpack(it)
	if n, pairs := it.Counts(); len(stats) != 2 || n != 2 || pairs != 5 {
		t.Fatalf("iters = %+v, counts %d/%d", stats, n, pairs)
	}
	id := func(pl topology.Place) int32 { return int32(topo.PlaceID(pl)) }
	want0 := []PlaceCount{{id(lead0), 1}, {id(lead2), 1}, {id(wide), 2}}
	if !slices.Equal(places[0], want0) {
		t.Fatalf("iter 0 places = %+v, want %+v", places[0], want0)
	}
	if count(places[0], wide, topo) != 2 || count(places[1], wide, topo) != 0 {
		t.Fatalf("counts: iter 0 %+v, iter 1 %+v", places[0], places[1])
	}
	if cap(it.b) != len(it.b) {
		t.Fatalf("the readout holds %d bytes for a %d-byte encoding", cap(it.b), len(it.b))
	}
}

// The readout is one allocation per run — the exact-size copy of the
// record's scratch — however many iterations the run had (it was a map per
// iteration, 35 % of a cold synthetic cell's allocations).
func TestIterStatsAllocs(t *testing.T) {
	rc := newRecorder(topology.TX2())
	for iter := 0; iter < 40; iter++ {
		for core := 0; core < 6; core++ {
			rc.taskDone(topology.Place{Leader: core, Width: 1}, false, iter, float64(iter), float64(iter)+1)
		}
	}
	c := rc.record(t)
	var it Iters
	allocs := testing.AllocsPerRun(20, func() { it = c.IterStats() })
	if stats, places := unpack(it); len(stats) != 40 || len(places[39]) != 6 {
		t.Fatalf("readout lost data: %d iterations", len(stats))
	}
	if allocs > 1 {
		t.Errorf("IterStats costs %.0f allocs/op, want <= 1", allocs)
	}
}

// TestIterArraysPointerFree: nothing an Iters holds contains a pointer — its
// one slice is of bytes — so the garbage collector never scans a cached
// cell's per-iteration data.
func TestIterArraysPointerFree(t *testing.T) {
	var walk func(t reflect.Type) string
	walk = func(t reflect.Type) string {
		switch t.Kind() {
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if bad := walk(t.Field(i).Type); bad != "" {
					return t.Field(i).Name + ": " + bad
				}
			}
			return ""
		case reflect.Array:
			return walk(t.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			return t.Kind().String()
		}
		return ""
	}
	typ := reflect.TypeFor[Iters]()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		elem := f.Type
		if elem.Kind() == reflect.Slice {
			elem = elem.Elem() // the backing array is what a GC would scan
		}
		if bad := walk(elem); bad != "" {
			t.Errorf("Iters.%s holds a pointer-bearing field (%s)", f.Name, bad)
		}
	}
}

// iter is one Append call: an iteration and its place counts.
type iter struct {
	st    IterStat
	pairs []PlaceCount
}

// roundTripRows are values a peer could send as well as what the collector
// builds, including a row for each of the encoding's escapes: a count other
// than 1, a task count other than the pair count, and a pair or ID delta
// past one byte.
func roundTripRows() map[string][]iter {
	negZero := math.Copysign(0, -1)
	return map[string][]iter{
		"sparse tags": {
			{IterStat{Iter: 2, Tasks: 1, Start: 0, End: 1}, []PlaceCount{{0, 1}}},
			{IterStat{Iter: 1 << 20, Tasks: 2, Start: 1, End: 2}, []PlaceCount{{3, 2}}},
			{IterStat{Iter: 1e9 + 1<<20, Tasks: 3, Start: 2, End: 3}, []PlaceCount{{1, 1}, {4, 2}}},
		},
		"negative": {
			{IterStat{Iter: -1, Tasks: -5, Start: -0.5, End: negZero}, []PlaceCount{{-3, -7}}},
			{IterStat{Iter: -9, Tasks: math.MinInt64}, []PlaceCount{{2, -1}, {-2, 0}}},
		},
		"unsorted and duplicate IDs": {
			{IterStat{Iter: 0, Tasks: 4}, []PlaceCount{{9, 1}, {2, 1}, {2, 1}, {9, 1}, {0, 0}}},
		},
		"int32 extremes": {
			{IterStat{Iter: math.MaxInt64, Tasks: math.MaxInt64, Start: math.MaxFloat64, End: math.SmallestNonzeroFloat64},
				[]PlaceCount{{math.MinInt32, math.MaxInt32}, {math.MaxInt32, math.MinInt32}, {math.MinInt32, 0}}},
			{IterStat{Iter: math.MinInt64, Start: -math.MaxFloat64}, []PlaceCount{{math.MaxInt32, math.MaxInt32}}},
		},
		"no pairs": {
			{IterStat{Iter: 3, Tasks: 0}, nil},
			{IterStat{Iter: 4, Tasks: 1}, []PlaceCount{{1, 1}}},
			{IterStat{Iter: 5}, []PlaceCount{}},
		},
		"counts of 1 with two-byte ID deltas": {
			{IterStat{Iter: 0, Tasks: 6, Start: 1, End: 2},
				[]PlaceCount{{31, 1}, {63, 1}, {30, 1}, {-3, 1}, {-36, 1}, {1000, 1}}},
		},
		"counts of 0, -1 and 2 among counts of 1": {
			{IterStat{Iter: 1, Tasks: 4}, []PlaceCount{{0, 1}, {1, 0}, {2, 1}, {3, -1}, {4, 2}, {5, 1}, {37, 2}}},
		},
		"as many tasks as pairs, counts other than 1": {
			{IterStat{Iter: 0, Tasks: 2}, []PlaceCount{{0, 3}, {1, 5}}},
			{IterStat{Iter: 1, Tasks: 1}, []PlaceCount{{7, 0}}},
		},
		"every count 1, tasks other than pairs": {
			{IterStat{Iter: 0, Tasks: 5}, []PlaceCount{{0, 1}, {1, 1}}},
			{IterStat{Iter: 1, Tasks: 0}, []PlaceCount{{0, 1}}},
			{IterStat{Iter: 2, Tasks: -1}, nil},
		},
		"ID deltas that wrap int32": {
			{IterStat{Iter: 0, Tasks: 4}, []PlaceCount{{math.MaxInt32, 1}, {math.MinInt32, 1}, {-1, 1}, {math.MaxInt32, 1}}},
		},
	}
}

// checkIters appends iters to an Iters and checks that the cursor reads back,
// bit for bit, every field Append wrote, and that Counts matches.
func checkIters(t *testing.T, name string, iters []iter) {
	t.Helper()
	var it Iters
	wantPairs := 0
	for _, x := range iters {
		it.Append(x.st, x.pairs)
		wantPairs += len(x.pairs)
	}
	if n, pairs := it.Counts(); n != len(iters) || pairs != wantPairs {
		t.Errorf("%s: counts %d/%d, want %d/%d", name, n, pairs, len(iters), wantPairs)
	}
	stats, places := unpack(it)
	if len(stats) != len(iters) {
		t.Fatalf("%s: the cursor read %d iterations, want %d", name, len(stats), len(iters))
	}
	for i, x := range iters {
		got, want := stats[i], x.st
		if got.Iter != want.Iter || got.Tasks != want.Tasks ||
			math.Float64bits(got.Start) != math.Float64bits(want.Start) ||
			math.Float64bits(got.End) != math.Float64bits(want.End) {
			t.Errorf("%s: iteration %d reads %+v, want %+v", name, i, got, want)
		}
		if !slices.Equal(places[i], x.pairs) {
			t.Errorf("%s: iteration %d pairs %v, want %v", name, i, places[i], x.pairs)
		}
	}
}

// TestItersRoundTrip: the cursor reads back, bit for bit, every field Append
// wrote, for hostile values as well as what the collector builds.
func TestItersRoundTrip(t *testing.T) {
	for name, iters := range roundTripRows() {
		checkIters(t, name, iters)
	}
}

// TestItersPairBytes: an iteration the collector typically writes — one task
// per pair, each count 1, ascending IDs a few places apart — takes one byte
// per pair beyond its iteration delta, pair count and two float words; an ID
// delta past ±32 or a count other than 1 costs one byte more.
func TestItersPairBytes(t *testing.T) {
	for _, tc := range []struct {
		pairs []PlaceCount
		tasks int64
		want  int
	}{
		{[]PlaceCount{{0, 1}, {3, 1}, {34, 1}, {2, 1}}, 4, 18 + 4},
		{[]PlaceCount{{0, 1}, {32, 1}}, 2, 18 + 3},
		{[]PlaceCount{{0, 1}, {-33, 1}}, 2, 18 + 3},
		{[]PlaceCount{{0, 1}, {1, 2}}, 2, 18 + 3},
		{[]PlaceCount{{0, 1}, {1, 1}}, 3, 18 + 3},
	} {
		var it Iters
		it.Append(IterStat{Tasks: tc.tasks}, tc.pairs)
		if len(it.b) != tc.want {
			t.Errorf("%d tasks on %v encode in %d bytes, want %d", tc.tasks, tc.pairs, len(it.b), tc.want)
		}
	}
}

// fuzzBytes writes iters in the form fuzzIters reads.
func fuzzBytes(iters []iter) []byte {
	var b []byte
	for _, x := range iters {
		b = binary.AppendVarint(b, int64(x.st.Iter))
		b = binary.AppendVarint(b, x.st.Tasks)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x.st.Start))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x.st.End))
		b = binary.AppendUvarint(b, uint64(len(x.pairs)))
		for _, pc := range x.pairs {
			b = binary.AppendVarint(binary.AppendVarint(b, int64(pc.ID)), int64(pc.N))
		}
	}
	return b
}

// fuzzIters reads data as iterations, each a varint Iter and Tasks, 8-byte
// Start and End, a uvarint pair count (at most 64 are kept) and a varint ID
// and N per pair, truncated to 32 bits. Small values take a byte, so a
// mutated input reaches the counts of 1 and the task counts equal to the
// pair count that the encoding folds away. It stops at the first field the
// data runs out in.
func fuzzIters(data []byte) []iter {
	var out []iter
	varint := func() (int64, bool) {
		v, n := binary.Varint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	word := func() (float64, bool) {
		if len(data) < 8 {
			return 0, false
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return v, true
	}
	for {
		var x iter
		iv, ok1 := varint()
		tasks, ok2 := varint()
		start, ok3 := word()
		end, ok4 := word()
		n, m := binary.Uvarint(data)
		if !ok1 || !ok2 || !ok3 || !ok4 || m <= 0 {
			return out
		}
		data = data[m:]
		x.st = IterStat{Iter: int(iv), Tasks: tasks, Start: start, End: end}
		for range min(n, 64) {
			id, ok1 := varint()
			cnt, ok2 := varint()
			if !ok1 || !ok2 {
				return out
			}
			x.pairs = append(x.pairs, PlaceCount{ID: int32(id), N: int32(cnt)})
		}
		out = append(out, x)
	}
}

// FuzzIters: whatever iterations and place counts are appended, the cursor
// reads every field back bit for bit and Counts matches (checkIters). The
// corpus is TestItersRoundTrip's rows.
func FuzzIters(f *testing.F) {
	for _, iters := range roundTripRows() {
		f.Add(fuzzBytes(iters))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkIters(t, "fuzz", fuzzIters(data))
	})
}

func TestNegativeIterIgnored(t *testing.T) {
	rc := newRecorder(topology.TX2())
	rc.taskDone(topology.Place{Leader: 0, Width: 1}, false, -1, 0, 1)
	if n, _ := rc.record(t).IterStats().Counts(); n != 0 {
		t.Fatal("iter -1 recorded")
	}
}

func TestZeroMakespanThroughput(t *testing.T) {
	c := newRecorder(topology.TX2()).record(t)
	if c.Throughput() != 0 || c.Makespan() != 0 {
		t.Fatal("throughput without makespan should be 0")
	}
}

// Iteration tags index one dense counting sort. A 1 M-layer synthetic cell
// tags its tasks up to about 2^20; readout follows the tags, not arrival
// order.
func TestDenseIterIndex(t *testing.T) {
	rc := newRecorder(topology.TX2())
	high := 1 << 20
	rc.taskDone(topology.Place{Leader: 0, Width: 1}, false, 2, 0.0, 1.0)
	rc.taskDone(topology.Place{Leader: 0, Width: 1}, false, high, 1.0, 2.0)
	rc.taskDone(topology.Place{Leader: 1, Width: 1}, false, high, 1.5, 2.5)
	for _, later := range []int{high + 3, high + 1, high + 2} {
		rc.taskDone(topology.Place{Leader: 0, Width: 1}, false, later, 3.0, 4.0)
	}
	c := rc.record(t)
	it := c.IterStats()
	st, places := unpack(it)
	if len(st) != 5 || st[0].Iter != 2 || st[1].Iter != high ||
		st[2].Iter != high+1 || st[3].Iter != high+2 || st[4].Iter != high+3 {
		t.Fatalf("iters = %+v", st)
	}
	if st[1].Tasks != 2 || st[1].Start != 1.0 || st[1].End != 2.5 || len(places[1]) != 2 {
		t.Fatalf("iter %d = %+v, places %+v", high, st[1], places[1])
	}
	if len(c.iterEnd) != high+5 {
		t.Fatalf("dense index holds %d entries, want %d", len(c.iterEnd), high+5)
	}
	// Every readout of the run is the same value, byte for byte.
	for range 20 {
		if again := c.IterStats(); !reflect.DeepEqual(again, it) {
			t.Fatalf("a second readout differs:\n %+v\n %+v", again, it)
		}
	}
}

// A record keeps its storage across runs up to keepEntries entries; a larger
// run's record is its own, and the next Reset releases it.
func TestRecordResetKeepsBoundedStorage(t *testing.T) {
	topo := topology.TX2()
	var r Record
	r.Reset(topo, nil, 100)
	kept := cap(r.Completions())
	r.Reset(topo, nil, 50)
	if c := cap(r.Completions()); c != kept || kept != 100 {
		t.Fatalf("a smaller run got cap %d, want the kept %d (100)", c, kept)
	}
	r.Reset(topo, nil, keepEntries+1)
	if c := cap(r.Completions()); c != keepEntries+1 {
		t.Fatalf("an oversized run got cap %d, want %d", c, keepEntries+1)
	}
	r.Reset(topo, nil, 0)
	if c := cap(r.Completions()); c != 0 {
		t.Fatalf("Reset kept %d entries of an oversized record, want 0", c)
	}
}
