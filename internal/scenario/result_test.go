package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/metrics"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

// fingerprintRef is the fmt-based renderer Result.Fingerprint replaced,
// kept verbatim as the oracle: the text is a cross-commit contract (the
// golden literals hash it), so the strconv renderer must reproduce it byte
// for byte on every input, not only on the ones the goldens cover. The one
// adaptation is placesKeyRef's argument — it rebuilds the map the old
// IterStat.Places was, so the oracle also checks that the pair form arrives
// ID-sorted.
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
				for _, st := range run.Iters {
					fmt.Fprintf(&b, " %d:%d:%x:%x:%s", st.Iter, st.Tasks,
						math.Float64bits(st.Start), math.Float64bits(st.End), placesKeyRef(st.Places))
				}
				b.WriteString("\n")
			}
		}
	}
	return b.String()
}

// placesKeyRef renders an iteration's place counts in deterministic order.
func placesKeyRef(pairs []metrics.PlaceCount) string {
	places := make(map[int]int64, len(pairs))
	for _, pc := range pairs {
		places[pc.ID] = pc.N
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

func checkFingerprint(t *testing.T, res *Result) {
	t.Helper()
	got, want := res.Fingerprint(), fingerprintRef(res)
	if got == want {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	t.Fatalf("Fingerprint diverges from the fmt reference at byte %d (%d vs %d bytes):\n got  …%q\n want …%q",
		i, len(got), len(want), got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

// TestFingerprintMatchesReference holds the renderer to the oracle on every
// registered family at test scale and on a distributed (HeatDist) spec,
// whose runs concatenate per-node busy times and merge histograms.
func TestFingerprintMatchesReference(t *testing.T) {
	specs := map[string]Spec{
		"heatdist": {
			Name:     "fp-ref-heatdist",
			Platform: PlatformSpec{Preset: "haswell-node"},
			Workload: WorkloadSpec{Kind: HeatDist, Heat: workloads.HeatDistConfig{Nodes: 2, Iters: 6}},
			Policies: core.All(),
			Reps:     2,
			Seed:     11,
		},
	}
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
			if res.Fingerprint() == "" {
				t.Fatal("empty fingerprint")
			}
			checkFingerprint(t, res)
		})
	}
}

// TestFingerprintMatchesReferenceProperty drives both renderers over seeded
// synthetic results no simulation produces: NaN, ±Inf and −0 floats,
// negative counts and ids, nil and empty slices, and names and labels with
// slashes, spaces, fmt verbs and non-ASCII text.
func TestFingerprintMatchesReferenceProperty(t *testing.T) {
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
			rm.Iters = make([]metrics.IterStat, rng.Intn(4))
			for i := range rm.Iters {
				st := metrics.IterStat{Iter: rng.Intn(1<<21) - 5, Tasks: n64(), Start: f(), End: f()}
				if rng.Intn(3) > 0 {
					id := rng.Intn(50) - 25
					st.Places = make([]metrics.PlaceCount, rng.Intn(5))
					for j := range st.Places {
						st.Places[j] = metrics.PlaceCount{ID: id, N: n64()}
						id += 1 + rng.Intn(1000)
					}
				}
				rm.Iters[i] = st
			}
		}
		return rm
	}
	for trial := 0; trial < 300; trial++ {
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
		checkFingerprint(t, res)
	}
}

// TestFingerprintAllocs pins the renderer's cost: rendering allocates
// nothing (the parent's fmt renderer made ~1 000 allocations per cell), so
// with the scratch pool warm a fingerprint is its exact-length string and
// nothing else.
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
	if raceEnabled {
		return // the pool sheds buffers at random under the race detector
	}
	res.Fingerprint() // warm the pool
	var got string
	allocs := testing.AllocsPerRun(20, func() { got = res.Fingerprint() })
	if got != want {
		t.Fatal("Fingerprint diverges from the fmt reference")
	}
	if allocs > 2 {
		t.Errorf("Fingerprint costs %.0f allocs/op on a warm pool, want <= 2", allocs)
	}
}
