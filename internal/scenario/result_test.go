package scenario

import (
	"bytes"
	"encoding/json"
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

// fingerprintRef is the fmt-based renderer Result.FingerprintText replaced,
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

// digestOf seals a copy of the run, whatever digest it carried.
func digestOf(rm RunMetrics) [32]byte {
	rm.Seal()
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
		"iters grow":   func(rm *RunMetrics) bool { rm.Iters = append(rm.Iters, metrics.IterStat{}); return true },
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
	for field, mut := range map[string]func(st *metrics.IterStat) bool{
		"iter":       func(st *metrics.IterStat) bool { st.Iter++; return true },
		"iter tasks": func(st *metrics.IterStat) bool { st.Tasks++; return true },
		"iter start": func(st *metrics.IterStat) bool { flip(&st.Start); return true },
		"iter end":   func(st *metrics.IterStat) bool { flip(&st.End); return true },
		"iter places grow": func(st *metrics.IterStat) bool {
			st.Places = append(st.Places, metrics.PlaceCount{})
			return true
		},
		"iter place id": func(st *metrics.IterStat) bool {
			if len(st.Places) == 0 {
				return false
			}
			st.Places[0].ID--
			return true
		},
		"iter place n": func(st *metrics.IterStat) bool {
			if len(st.Places) == 0 {
				return false
			}
			st.Places[0].N++
			return true
		},
	} {
		mutations[field] = func(rm *RunMetrics) bool {
			return len(rm.Iters) > 0 && mut(&rm.Iters[len(rm.Iters)-1])
		}
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
			target.Iters = append([]metrics.IterStat(nil), saved.Iters...)
			for i := range target.Iters {
				target.Iters[i].Places = append([]metrics.PlaceCount(nil), saved.Iters[i].Places...)
			}
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

// TestSealDoesNotTravel: the digest is no part of a RunMetrics' encoding — a
// sealed and an unsealed copy of one cell marshal to the same bytes, which is
// why no /v1/shards byte changed when cells started carrying one — and a
// decoded copy, sealed by its receiver, gets the sender's digest back.
func TestSealDoesNotTravel(t *testing.T) {
	f, _ := Lookup("burst-sweep")
	res, err := Run(f.Spec(0.05))
	if err != nil {
		t.Fatal(err)
	}
	sealed := res.Cells[0][0].Runs[0]
	plain := sealed
	plain.digest = [32]byte{}
	a, err := json.Marshal(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := json.Marshal(plain); !bytes.Equal(a, b) || bytes.Contains(bytes.ToLower(a), []byte("digest")) {
		t.Fatalf("a sealed cell encodes differently from an unsealed one, or names its digest:\n%.200s", a)
	}
	var back RunMetrics
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatal(err)
	}
	if back.digest != ([32]byte{}) {
		t.Fatal("a decoded cell arrived sealed")
	}
	if back.Seal(); back.digest != sealed.digest {
		t.Fatalf("re-sealed after the wire: %x, sender had %x", back.digest, sealed.digest)
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
	if allocs := testing.AllocsPerRun(20, func() { scratch = run.sealInto(scratch) }); allocs != 0 {
		t.Errorf("sealing on a warm worker's scratch costs %.0f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, run.Seal); allocs > 1 {
		t.Errorf("a bare Seal costs %.0f allocs/op, want its one exact-size buffer", allocs)
	}
}
