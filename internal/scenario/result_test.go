package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"dynasym/internal/core"
	"dynasym/internal/metrics"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

// fingerprintRef is the fmt-based renderer Result.FingerprintText replaced,
// kept verbatim as the oracle: the text is a cross-commit contract (the
// golden literals hash it), so the strconv renderer must reproduce it byte
// for byte on every input, not only on the ones the goldens cover. The one
// adaptation is placesKeyRef's argument — it rebuilds the map an iteration's
// place counts once were, so the oracle also checks that the pair form
// arrives ID-sorted.
func fingerprintRef(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario=%s topo=%s\n", r.Name, r.Topo)
	for pi, p := range r.Policies {
		for xi, pt := range r.Points {
			for rep, run := range r.Cells[pi][xi].Runs {
				fmt.Fprintf(&b, "%s/%s/r%d seed=%d tput=%x mk=%x tasks=%d steals=%d fsteals=%d disp=%d\n",
					p, pt.Label, rep, run.Seed,
					math.Float64bits(run.Throughput), math.Float64bits(run.Makespan),
					run.TasksDone, run.Steals, run.FailedSteals, run.Dispatches)
				b.WriteString(" busy")
				for _, v := range run.CoreBusy {
					fmt.Fprintf(&b, " %x", math.Float64bits(v))
				}
				b.WriteString("\n hist")
				for _, ps := range run.HighHist {
					fmt.Fprintf(&b, " %s:%d:%x", ps.Place, ps.Count, math.Float64bits(ps.Frac))
				}
				b.WriteString("\n iters")
				stats, places := iterRows(run.Iters)
				for i, st := range stats {
					fmt.Fprintf(&b, " %d:%d:%x:%x:%s", st.Iter, st.Tasks,
						math.Float64bits(st.Start), math.Float64bits(st.End), placesKeyRef(places[i]))
				}
				b.WriteString("\n")
			}
		}
	}
	return b.String()
}

// iterRows reads it through a cursor: the iterations in order and each one's
// place counts.
func iterRows(it metrics.Iters) (stats []metrics.IterStat, places [][]metrics.PlaceCount) {
	c := it.Cursor()
	for c.Next() {
		stats = append(stats, c.Stat())
		var pairs []metrics.PlaceCount
		for c.Pairs() > 0 {
			pairs = append(pairs, c.Places()...)
		}
		places = append(places, pairs)
	}
	return stats, places
}

// placesKeyRef renders an iteration's place counts in deterministic order.
func placesKeyRef(pairs []metrics.PlaceCount) string {
	places := make(map[int]int64, len(pairs))
	for _, pc := range pairs {
		places[int(pc.ID)] = int64(pc.N)
	}
	ids := make([]int, 0, len(places))
	for id := range places {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d=%d", id, places[id])
	}
	return strings.Join(parts, ",")
}

// digestOf seals a copy of the run, whatever digest it carried.
func digestOf(rm RunMetrics) [32]byte {
	rm.sealInto(nil)
	return rm.digest
}

func checkFingerprint(t *testing.T, res *Result) {
	t.Helper()
	got, want := res.FingerprintText(), fingerprintRef(res)
	if got == want {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	t.Fatalf("FingerprintText diverges from the fmt reference at byte %d (%d vs %d bytes):\n got  …%q\n want …%q",
		i, len(got), len(want), got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

// TestFingerprintMatchesReference holds the renderer to the oracle on every
// registered family at test scale and on distributed (HeatDist) specs, whose
// runs concatenate per-node busy times and merge histograms — and every run
// of them to its seal: runCell sealed it, and the digest it carries is the
// digest of the values it carries.
func TestFingerprintMatchesReference(t *testing.T) {
	heat := func(nodes int) Spec {
		return Spec{
			Name:     "fp-ref-heatdist",
			Platform: PlatformSpec{Preset: "haswell-node"},
			Workload: WorkloadSpec{Kind: HeatDist, Heat: workloads.HeatDistConfig{Nodes: nodes, Iters: 6}},
			Policies: core.All(),
			Reps:     2,
			Seed:     11,
		}
	}
	specs := map[string]Spec{"heatdist": heat(2), "heatdist-3": heat(3)}
	for _, name := range Names() {
		f, _ := Lookup(name)
		specs[name] = f.Spec(0.05)
	}
	for name, s := range specs {
		s := s
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Fingerprint()) != 64 {
				t.Fatalf("fingerprint %q is not 64 hex digits", res.Fingerprint())
			}
			checkFingerprint(t, res)
			for pi := range res.Cells {
				for xi := range res.Cells[pi] {
					for rep, run := range res.Cells[pi][xi].Runs {
						if run.digest == ([32]byte{}) || run.digest != digestOf(run) {
							t.Fatalf("%s/%s/r%d: carries digest %x, its values hash to %x",
								res.Policies[pi], res.Points[xi].Label, rep, run.digest, digestOf(run))
						}
					}
				}
			}
		})
	}
}

// hostileResults builds n seeded synthetic results no simulation produces:
// NaN, ±Inf and −0 floats, negative counts and ids, nil and empty slices, and
// names and labels with slashes, spaces, fmt verbs and non-ASCII text. Nobody
// sealed their runs.
func hostileResults(n int) []*Result {
	rng := rand.New(rand.NewSource(20200817))
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-9}
	f := func() float64 {
		if rng.Intn(2) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	n64 := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return -rng.Int63()
		case 1:
			return int64(rng.Intn(10))
		case 2:
			return math.MinInt64
		}
		return rng.Int63()
	}
	n32 := func() int32 { // a pair's fields: int32, so the extremes are 32-bit ones
		switch rng.Intn(4) {
		case 0:
			return -rng.Int31()
		case 1:
			return int32(rng.Intn(10))
		case 2:
			return math.MinInt32
		}
		return rng.Int31()
	}
	labels := []string{"", "P2", "a/b", "two words", "ünïcödé-标签", "100%d", "tab\there", "new\nline", "\xff\xfe"}
	label := func() string { return labels[rng.Intn(len(labels))] }
	run := func() RunMetrics {
		rm := RunMetrics{
			Seed: rng.Uint64(), Throughput: f(), Makespan: f(),
			TasksDone: n64(), Steals: n64(), FailedSteals: n64(), Dispatches: n64(),
		}
		if rng.Intn(4) > 0 {
			rm.CoreBusy = make([]float64, rng.Intn(5))
			for i := range rm.CoreBusy {
				rm.CoreBusy[i] = f()
			}
		}
		if rng.Intn(4) > 0 {
			rm.HighHist = make([]metrics.PlaceShare, rng.Intn(4))
			for i := range rm.HighHist {
				rm.HighHist[i] = metrics.PlaceShare{
					Place: topology.Place{Leader: rng.Intn(200) - 20, Width: rng.Intn(40) - 4},
					Count: n64(), Frac: f(),
				}
			}
		}
		if rng.Intn(4) > 0 {
			for i := rng.Intn(4); i > 0; i-- {
				st := metrics.IterStat{Iter: rng.Intn(1<<21) - 5, Tasks: n64(), Start: f(), End: f()}
				var pairs []metrics.PlaceCount
				if rng.Intn(3) > 0 {
					// Ascending IDs from either end of the int32 range or near 0.
					id := []int32{math.MinInt32, int32(rng.Intn(50) - 25), math.MaxInt32 - 4000}[rng.Intn(3)]
					pairs = make([]metrics.PlaceCount, rng.Intn(5))
					for j := range pairs {
						pairs[j] = metrics.PlaceCount{ID: id, N: n32()}
						id += 1 + int32(rng.Intn(1000))
					}
				}
				rm.Iters.Append(st, pairs)
			}
		}
		return rm
	}
	out := make([]*Result, n)
	for trial := range out {
		res := &Result{Name: label(), Topo: topology.TX2()}
		if trial%7 == 0 {
			res.Topo = nil
		}
		for pi := rng.Intn(4); pi > 0; pi-- {
			res.Policies = append(res.Policies, label())
		}
		for xi := rng.Intn(4); xi > 0; xi-- {
			res.Points = append(res.Points, Point{Label: label()})
		}
		res.Cells = make([][]Cell, len(res.Policies))
		for pi := range res.Cells {
			res.Cells[pi] = make([]Cell, len(res.Points))
			for xi := range res.Cells[pi] {
				runs := make([]RunMetrics, rng.Intn(3))
				for i := range runs {
					runs[i] = run()
				}
				res.Cells[pi][xi].Runs = runs
			}
		}
		out[trial] = res
	}
	return out
}

// copyIters rebuilds it through Append, which copies every field; edit, when
// not nil, changes the last iteration and returns its pairs on the way.
func copyIters(it metrics.Iters, edit func(st *metrics.IterStat, pairs []metrics.PlaceCount) []metrics.PlaceCount) metrics.Iters {
	var out metrics.Iters
	stats, places := iterRows(it)
	for i := range stats {
		if edit != nil && i == len(stats)-1 {
			places[i] = edit(&stats[i], places[i])
		}
		out.Append(stats[i], places[i])
	}
	return out
}

// TestFingerprintMatchesReferenceProperty drives both renderers over the
// hostile results.
func TestFingerprintMatchesReferenceProperty(t *testing.T) {
	for _, res := range hostileResults(300) {
		checkFingerprint(t, res)
	}
}

// TestDigestCoversExactlyTheText: over the hostile results, one field of one
// run changed at a time moves Fingerprint exactly when it moves
// FingerprintText. Sched moves neither; a nil slice made empty moves neither;
// words carried across a slice boundary move both (the digest's encoding
// prefixes every slice with its length: unprefixed, the two runs would encode
// to the same bytes); and a renamed policy or label moves the job's digest but
// no run's — which is what lets the cell cache serve a renamed sweep.
func TestDigestCoversExactlyTheText(t *testing.T) {
	flip := func(v *float64) { *v = math.Float64frombits(math.Float64bits(*v) ^ 1) }
	mutations := map[string]func(rm *RunMetrics) bool{ // false: does not apply to this run
		"seed":         func(rm *RunMetrics) bool { rm.Seed ^= 1; return true },
		"throughput":   func(rm *RunMetrics) bool { flip(&rm.Throughput); return true },
		"makespan":     func(rm *RunMetrics) bool { flip(&rm.Makespan); return true },
		"tasks":        func(rm *RunMetrics) bool { rm.TasksDone++; return true },
		"steals":       func(rm *RunMetrics) bool { rm.Steals++; return true },
		"fsteals":      func(rm *RunMetrics) bool { rm.FailedSteals++; return true },
		"dispatches":   func(rm *RunMetrics) bool { rm.Dispatches++; return true },
		"busy grows":   func(rm *RunMetrics) bool { rm.CoreBusy = append(rm.CoreBusy, 0); return true },
		"hist grows":   func(rm *RunMetrics) bool { rm.HighHist = append(rm.HighHist, metrics.PlaceShare{}); return true },
		"iters grow":   func(rm *RunMetrics) bool { rm.Iters.Append(metrics.IterStat{}, nil); return true },
		"sched":        func(rm *RunMetrics) bool { rm.Sched = &metrics.Sched{}; return true },
		"nil to empty": func(rm *RunMetrics) bool { rm.CoreBusy = append([]float64{}, rm.CoreBusy...); return true },
		"busy value": func(rm *RunMetrics) bool {
			if len(rm.CoreBusy) == 0 {
				return false
			}
			flip(&rm.CoreBusy[len(rm.CoreBusy)-1])
			return true
		},
		"busy shrinks": func(rm *RunMetrics) bool {
			if len(rm.CoreBusy) == 0 {
				return false
			}
			rm.CoreBusy = rm.CoreBusy[:len(rm.CoreBusy)-1]
			return true
		},
		"busy into hist": func(rm *RunMetrics) bool {
			n := len(rm.CoreBusy) - 4
			if n < 0 {
				return false
			}
			w := rm.CoreBusy[n:]
			rm.HighHist = append([]metrics.PlaceShare{{
				Place: topology.Place{Leader: int(math.Float64bits(w[0])), Width: int(math.Float64bits(w[1]))},
				Count: int64(math.Float64bits(w[2])), Frac: w[3],
			}}, rm.HighHist...)
			rm.CoreBusy = rm.CoreBusy[:n]
			return true
		},
	}
	for field, mut := range map[string]func(ps *metrics.PlaceShare){
		"hist leader": func(ps *metrics.PlaceShare) { ps.Place.Leader++ },
		"hist width":  func(ps *metrics.PlaceShare) { ps.Place.Width++ },
		"hist count":  func(ps *metrics.PlaceShare) { ps.Count++ },
		"hist frac":   func(ps *metrics.PlaceShare) { flip(&ps.Frac) },
	} {
		mutations[field] = func(rm *RunMetrics) bool {
			if len(rm.HighHist) == 0 {
				return false
			}
			mut(&rm.HighHist[0])
			return true
		}
	}
	// The last iteration and its first pair, changed on a rebuild: the
	// encoding cannot be edited in place.
	for field, mut := range map[string]func(st *metrics.IterStat){
		"iter":       func(st *metrics.IterStat) { st.Iter++ },
		"iter tasks": func(st *metrics.IterStat) { st.Tasks++ },
		"iter start": func(st *metrics.IterStat) { flip(&st.Start) },
		"iter end":   func(st *metrics.IterStat) { flip(&st.End) },
	} {
		mutations[field] = func(rm *RunMetrics) bool {
			if n, _ := rm.Iters.Counts(); n == 0 {
				return false
			}
			rm.Iters = copyIters(rm.Iters, func(st *metrics.IterStat, pairs []metrics.PlaceCount) []metrics.PlaceCount {
				mut(st)
				return pairs
			})
			return true
		}
	}
	for field, mut := range map[string]func(pc *metrics.PlaceCount){
		"iter place id": func(pc *metrics.PlaceCount) { pc.ID-- },
		"iter place n":  func(pc *metrics.PlaceCount) { pc.N++ },
	} {
		mutations[field] = func(rm *RunMetrics) bool {
			_, places := iterRows(rm.Iters)
			if len(places) == 0 || len(places[len(places)-1]) == 0 {
				return false
			}
			rm.Iters = copyIters(rm.Iters, func(_ *metrics.IterStat, pairs []metrics.PlaceCount) []metrics.PlaceCount {
				mut(&pairs[0])
				return pairs
			})
			return true
		}
	}
	mutations["iter places grow"] = func(rm *RunMetrics) bool {
		if n, _ := rm.Iters.Counts(); n == 0 {
			return false
		}
		rm.Iters = copyIters(rm.Iters, func(_ *metrics.IterStat, pairs []metrics.PlaceCount) []metrics.PlaceCount {
			return append(pairs, metrics.PlaceCount{})
		})
		return true
	}
	neutral := map[string]bool{"sched": true, "nil to empty": true}

	applied := map[string]int{}
	for trial, res := range hostileResults(300) {
		text, print := res.FingerprintText(), res.Fingerprint()
		var target *RunMetrics
		var policy, label *string // the target's: the text names only cells that have runs
		for pi := range res.Cells {
			for xi := range res.Cells[pi] {
				if runs := res.Cells[pi][xi].Runs; target == nil && len(runs) > 0 {
					target, policy, label = &runs[len(runs)-1], &res.Policies[pi], &res.Points[xi].Label
				}
			}
		}
		if target == nil {
			continue
		}
		saved := *target
		for name, mut := range mutations {
			// Copy what a mutation may write through.
			target.CoreBusy = append([]float64(nil), saved.CoreBusy...)
			target.HighHist = append([]metrics.PlaceShare(nil), saved.HighHist...)
			target.Iters = copyIters(saved.Iters, nil)
			if mut(target) {
				applied[name]++
				textMoved, printMoved := res.FingerprintText() != text, res.Fingerprint() != print
				if textMoved != printMoved || textMoved == neutral[name] {
					t.Errorf("trial %d, %s: text moved %v, digest moved %v", trial, name, textMoved, printMoved)
				}
			}
			*target = saved
		}

		run := digestOf(*target)
		for what, rename := range map[string]*string{"policy": policy, "label": label} {
			old := *rename
			*rename += "'"
			if res.Fingerprint() == print || res.FingerprintText() == text {
				t.Errorf("trial %d: a renamed %s moved text %v, digest %v; want both", trial, what,
					res.FingerprintText() != text, res.Fingerprint() != print)
			}
			if digestOf(*target) != run {
				t.Errorf("trial %d: a renamed %s moved a run's digest", trial, what)
			}
			*rename = old
		}
	}
	for name := range mutations {
		if applied[name] < 10 {
			t.Errorf("mutation %q applied to %d results; the generator no longer exercises it", name, applied[name])
		}
	}
}

// TestFingerprintAllocs pins the costs a job pays: a worker seals a cell on
// its own scratch and allocates nothing, a job's fingerprint over sealed
// cells is its input buffer and its string, and the text renderer — the
// debug path — still allocates nothing beyond its output (the fmt renderer
// it replaced made ~1 000 allocations per cell).
func TestFingerprintAllocs(t *testing.T) {
	f, _ := Lookup("scaleout-32")
	res, err := Run(f.Spec(0.05))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintRef(res)
	buf := make([]byte, 0, len(want))
	if allocs := testing.AllocsPerRun(20, func() { buf = res.appendFingerprint(buf[:0]) }); allocs != 0 {
		t.Errorf("rendering into a sized buffer costs %.0f allocs/op, want 0", allocs)
	}
	if string(buf) != want {
		t.Fatal("appendFingerprint diverges from the fmt reference")
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = res.Fingerprint() }); allocs > 3 {
		t.Errorf("Fingerprint costs %.0f allocs/op over sealed cells, want <= 3", allocs)
	}
	run := res.Cells[0][0].Runs[0]
	scratch := run.sealInto(nil)
	if len(scratch) != cap(scratch) {
		t.Errorf("sealInto sized its scratch to %d bytes for a %d-byte encoding", cap(scratch), len(scratch))
	}
	if allocs := testing.AllocsPerRun(20, func() { scratch = run.sealInto(scratch) }); allocs != 0 {
		t.Errorf("sealing on a warm worker's scratch costs %.0f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { run.sealInto(nil) }); allocs > 1 {
		t.Errorf("a seal without scratch costs %.0f allocs/op, want its one exact-size buffer", allocs)
	}
}

// goldenKMeans is the KMeans spec TestSpecHashGoldenVectors pins: one DAM-P
// cell of four iterations, each with its per-place task counts.
func goldenKMeans() Spec {
	return Spec{
		Name:     "golden-kmeans",
		Workload: WorkloadSpec{Kind: KMeans, KMeans: workloads.KMeansConfig{K: 8, MaxIters: 4}},
		Policies: []core.Policy{core.DAMP()},
		Seed:     42,
	}
}

// TestRunMetricsWireGolden pins what a cell is on the shard wire: sha256 of
// json.Marshal of the RunSummary of a KMeans cell and of a scaleout-32@0.05
// cell (200 iterations), its digest as 64 hex digits. The literals hold a
// coordinator and its peers to one format across versions; a change that
// moves them makes two versions refuse each other, so it renames the shard
// reply's member, as "summary" replaced "metrics". The encoding decodes to
// the same summary.
func TestRunMetricsWireGolden(t *testing.T) {
	scaleout, _ := Lookup("scaleout-32")
	for _, v := range []struct {
		name string
		spec Spec
		want string
	}{
		{"kmeans", goldenKMeans(), "d66e435bb9258db85759c2acc48aa1115f78688d31641b920701547a5093d257"},
		{"scaleout-32", scaleout.Spec(0.05), "1d0cd5957c2582247d1e0e8a89cd18cc0d40859d78f0e6e5a06081a6d4bf1340"},
	} {
		res, err := Run(v.spec)
		if err != nil {
			t.Fatal(err)
		}
		run := res.Cells[0][0].Runs[0]
		sum := run.Summary()
		b, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256.Sum256(b); hex.EncodeToString(got[:]) != v.want {
			t.Errorf("%s: wire bytes hash to %x, want %s:\n%s", v.name, got, v.want, b)
		}
		if !bytes.Contains(b, []byte(`"Digest":"`+hex.EncodeToString(run.digest[:])+`"`)) {
			t.Errorf("%s: the wire form does not carry the sealed digest in hex: %s", v.name, b)
		}
		var back RunSummary
		if err := json.Unmarshal(b, &back); err != nil || back != sum {
			t.Errorf("%s: decoded %+v (%v), want %+v", v.name, back, err, sum)
		}
	}
	var d Digest
	for _, bad := range []string{`""`, `"00"`, `"` + strings.Repeat("g", 64) + `"`, `"` + strings.Repeat("0", 66) + `"`} {
		if json.Unmarshal([]byte(bad), &d) == nil {
			t.Errorf("digest %s decoded without an error", bad)
		}
	}
}

// TestCachedCellFootprint: what the service caches of a cell, its
// RunSummary, holds no pointer — a reflect walk of its type finds none — so a
// cache of them costs the garbage collector nothing to scan, and its size is
// exact: 88 bytes, whatever the cell. The walk fails on every kind that holds
// or is a pointer, so a field added later is checked too.
func TestCachedCellFootprint(t *testing.T) {
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
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return ""
		default:
			return t.String() + " holds a pointer"
		}
	}
	if bad := walk(reflect.TypeOf(RunSummary{})); bad != "" {
		t.Errorf("RunSummary.%s", bad)
	}
	if n := unsafe.Sizeof(RunSummary{}); n != 88 {
		t.Errorf("a RunSummary is %d bytes, want 88: seven words and a sha256 digest", n)
	}
}
