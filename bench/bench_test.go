package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynasym/internal/scenario"
)

// Same -seed, same request stream, byte for byte; another seed shares no
// cell with it.
func TestGeneratorDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		if name == paperCLI {
			continue
		}
		t.Run(name, func(t *testing.T) {
			a, err := newWorkload(name, 3, quickShape)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := newWorkload(name, 3, quickShape)
			c, _ := newWorkload(name, 4, quickShape)
			cellsOf := func(j job) map[string]bool {
				p, err := scenario.NewPlan(j.spec)
				if err != nil {
					t.Fatal(err)
				}
				hs := map[string]bool{}
				for _, cell := range p.Cells {
					hs[cell.Hash] = true
				}
				return hs
			}
			seen := map[string]bool{}
			for i := 0; i < a.warmup+24; i++ {
				ja, jb := a.gen(i), b.gen(i)
				if !bytes.Equal(ja.body, jb.body) {
					t.Fatalf("job %d: same seed, different request bodies", i)
				}
				if ja.wantCode != jb.wantCode || ja.hits != jb.hits || ja.misses != jb.misses || ja.verify != jb.verify {
					t.Fatalf("job %d: same seed, different expected regime", i)
				}
				for h := range cellsOf(ja) {
					seen[h] = true
				}
			}
			for i := 0; i < c.warmup+24; i++ {
				for h := range cellsOf(c.gen(i)) {
					if seen[h] {
						t.Fatalf("job %d of seed 4 shares cell %.12s with seed 3", i, h)
					}
				}
			}
		})
	}
}

// The overlap-fleet stream must start its timed section on the first job of
// an epoch, or the ledger (which replays from there with an empty cell
// cache) would see a different regime than the daemon.
func TestOverlapFleetTimedSectionStartsAnEpoch(t *testing.T) {
	for _, sh := range []shape{defaultShape, quickShape} {
		w, err := newWorkload("overlap-fleet", 1, sh)
		if err != nil {
			t.Fatal(err)
		}
		if j := w.gen(w.warmup); j.hits != 0 || j.misses != 21 {
			t.Fatalf("shape %+v: first timed job expects %d hits, %d misses; want 0, 21", sh, j.hits, j.misses)
		}
		if j := w.gen(w.warmup + 1); j.hits != 14 || j.misses != 7 {
			t.Fatalf("shape %+v: second timed job expects %d hits, %d misses; want 14, 7", sh, j.hits, j.misses)
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("p90 of one sample = %g", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		wantPct float64
	}{{4, 50}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}, {2000, 99.5}, {10000, 99.9}, {100000, 99.99}} {
		pct, v := tailPercentile(mk(c.n))
		if pct != c.wantPct {
			t.Errorf("n=%d: tail percentile %g, want %g", c.n, pct, c.wantPct)
		}
		if beyond := c.n - int(v); pct != 50 && beyond < tailBeyond {
			t.Errorf("n=%d: only %d samples beyond the p%g", c.n, beyond, pct)
		}
	}
}

// quartileSpread follows Python's statistics.quantiles(xs, n=4).
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 12, 11, 15, 14, 13, 19, 17, 16, 18}
	// quantiles -> [11.75, 14.5, 17.25]; median 14.5.
	if got, want := quartileSpread(xs), (17.25-11.75)/14.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	if quartileSpread([]float64{5}) != 0 {
		t.Fatal("one value has no spread")
	}
}

// The end-to-end timings are those of the quietest quarter of the slices,
// their jobs taken together.
func TestQuietTimings(t *testing.T) {
	var slices []slice
	for i := 0; i < 8; i++ {
		// Slice i holds ten jobs of 10+i ms and cost 10 ms of CPU apiece;
		// slices 3 and 5 are the quiet ones, at 5 and 6 ms.
		l := float64(10 + i)
		switch i {
		case 3:
			l = 5
		case 5:
			l = 6
		}
		lat := make([]float64, 10)
		for k := range lat {
			lat[k] = l
		}
		slices = append(slices, newSlice(lat, 100*time.Millisecond, 1))
	}
	got := quietTimings(slices, 1)
	for i, sl := range slices {
		if want := i == 3 || i == 5; sl.Quiet != want {
			t.Errorf("slice %d: quiet = %t, want %t", i, sl.Quiet, want)
		}
	}
	// 20 jobs, ten of 5 ms and ten of 6 ms: 110 ms busy, 200 ms of CPU.
	want := timings{P50: 5, P90: 6, JobsPerS: 20 / 0.110, CPUPerJob: 10}
	if got.P50 != want.P50 || got.P90 != want.P90 || got.CPUPerJob != want.CPUPerJob || math.Abs(got.JobsPerS-want.JobsPerS) > 1e-9 {
		t.Errorf("quiet timings = %+v, want %+v", got, want)
	}
	if one := quietTimings(slices[:1], 2); one.P50 != 10 || math.Abs(one.JobsPerS-200) > 1e-9 {
		t.Errorf("a single slice is its own quiet share, two clients double the rate: %+v", one)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP asymd_jobs_done_total Jobs that finished successfully.
# TYPE asymd_jobs_done_total counter
asymd_jobs_done_total 42
# TYPE asymd_job_run_seconds histogram
asymd_job_run_seconds_bucket{le="0.001"} 3
asymd_job_run_seconds_bucket{le="+Inf"} 7
asymd_job_run_seconds_sum 0.125
asymd_job_run_seconds_count 7
asymd_peer_shard_rtt_seconds_count{peer="http://127.0.0.1:1234"} 5
asymd_peer_shard_rtt_seconds_count{peer="http://127.0.0.1:99 x"} 2
asymd_breaker_state{peer="http://127.0.0.1:1234"} 0
`
	s, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"asymd_jobs_done_total":              42,
		"asymd_job_run_seconds_sum":          0.125,
		"asymd_job_run_seconds_count":        7,
		"asymd_job_run_seconds_bucket":       10,
		"asymd_peer_shard_rtt_seconds_count": 7, // summed over peers, spaces in a label survive
		"asymd_job_run_seconds":              0, // a prefix of other families is not those families
		"asymd_missing":                      0,
	} {
		if got := s.family(name); got != want {
			t.Errorf("family(%s) = %g, want %g", name, got, want)
		}
	}
	other, _ := parseProm(strings.NewReader("asymd_jobs_done_total 8\n"))
	s.add(other)
	if got := s.family("asymd_jobs_done_total"); got != 50 {
		t.Errorf("fleet sum = %g, want 50", got)
	}
	if _, err := parseProm(strings.NewReader("asymd_x notanumber\n")); err == nil {
		t.Error("a non-numeric value must be an error")
	}
}

func TestSelfTime(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "job", parent: -1, start: msd(0), end: msd(100)},
		{name: "a", parent: 0, start: msd(10), end: msd(30)},
		{name: "b", parent: 0, start: msd(25), end: msd(50)},  // overlaps a by 5
		{name: "c", parent: 0, start: msd(90), end: msd(120)}, // runs past the parent
		{name: "grandchild", parent: 1, start: msd(12), end: msd(20)},
		{name: "other", parent: -1, start: msd(0), end: msd(100)},
	}
	if got := selfTime(spans, 0); got != msd(100-40-10) {
		t.Errorf("self time of job = %v, want 50ms", got)
	}
	if got := selfTime(spans, 1); got != msd(20-8) {
		t.Errorf("self time of a = %v, want 12ms", got)
	}
	if got := selfTime(spans, 5); got != msd(100) {
		t.Errorf("a span without children keeps its whole duration, got %v", got)
	}

	var none *spanRec
	none.end(none.begin("x", "y", 0, -1)) // a nil recorder records nothing and does not panic
	rec := newSpanRec()
	root := rec.begin("loadgen", "job", 7, -1)
	rec.end(rec.begin("service", "POST /v1/jobs", 7, root))
	rec.end(root)
	var buf bytes.Buffer
	if err := rec.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"POST /v1/jobs"`, `"job":"7"`, `"parent":"0"`, `"thread_name"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Chrome trace lacks %s:\n%s", want, buf.String())
		}
	}
}

func TestCheckCLIOutput(t *testing.T) {
	r, err := quickCLI(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := checkCLIOutput(r.out)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(norm, []byte(" in 0.0s)")) {
		t.Error("timing lines survive normalisation")
	}
	slower := bytes.ReplaceAll(r.out, []byte("in 0.0s)"), []byte("in 12.3s)"))
	if norm2, err := checkCLIOutput(slower); err != nil || !bytes.Equal(norm, norm2) {
		t.Errorf("outputs that differ only in timing lines must normalise equal (err %v)", err)
	}
	if _, err := checkCLIOutput(bytes.Replace(r.out, []byte("(fig8 in"), []byte("(figX in"), 1)); err == nil || !strings.Contains(err.Error(), "fig8") {
		t.Errorf("a missing paper id must be reported, got %v", err)
	}
	if _, err := checkCLIOutput([]byte("(table1 in 0.0s)\n")); err == nil {
		t.Error("an id without a table must be reported")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "job_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower within bound", lower, steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{"slower beyond bound", lower, steady, []float64{115, 116, 114, 115, 115}, "REGRESSION"},
		{"throughput drop", higher, steady, []float64{85, 86, 84, 85, 85}, "REGRESSION"},
		{"throughput gain", higher, steady, []float64{125, 126, 124, 125, 125}, "ok"},
		{"noisy", lower, []float64{80, 100, 120, 90, 130}, []float64{85, 105, 125, 95, 135}, "unresolved"},
		{"noisy but every run better", lower, []float64{80, 100, 120, 90, 130}, []float64{40, 50, 60, 45, 65}, "ok"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// The quick mode runs every workload shape in process (httptest servers,
// small caches, a handful of jobs, no child processes) and must emit every
// metric BENCHMARK.json lists, each with a unit, with every job correct.
func TestQuickEmitsEveryMetric(t *testing.T) {
	s, err := newSession(true)
	if err != nil {
		t.Fatal(err)
	}
	s.outDir = t.TempDir()
	// BENCHMARK.json gates on the first workloads of the program's list (as
	// many as the driver's time limit leaves room for at its run length);
	// the rest run by hand and in full sets.
	if got := len(s.spec.Workloads); got < 2 || got > len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", got, len(workloadNames))
	}
	for i, wl := range s.spec.Workloads {
		if wl.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the program", i, wl.Name, workloadNames[i])
		}
	}
	for _, m := range append(append([]metricSpec{}, s.spec.EndToEnd...), s.spec.PerLayer...) {
		if m.Unit == "" || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel() // a smoke of the plumbing: the timings mean nothing here
			m, err := s.run(name, runOpts{seed: 5, seconds: 0.1, traced: true, window: 5})
			if err != nil {
				t.Fatal(err)
			}
			if m.failed != 0 || m.attempted == 0 {
				t.Fatalf("%d of %d jobs failed: %v", m.failed, m.attempted, m.firstErr)
			}
			if _, err := named(s.spec.EndToEnd, m.e2e); err != nil {
				t.Error(err)
			}
			layer, err := named(s.spec.PerLayer, m.layer)
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range layer {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v", name, v.Value)
				}
			}
			if name == paperCLI {
				return
			}
			if b, err := os.ReadFile(filepath.Join(s.outDir, name+"-seed5-trace1", "ledger-trace.json")); err != nil || !bytes.Contains(b, []byte(`"Result.Fingerprint"`)) && name != "warm-job" {
				t.Errorf("ledger trace missing or without fingerprint spans (err %v)", err)
			}
		})
	}
	// The untraced path differs only in how the timed section ends.
	t.Run("untraced", func(t *testing.T) {
		t.Parallel()
		m, err := s.run("warm-job", runOpts{seed: 5, seconds: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := named(s.spec.EndToEnd, m.e2e); err != nil || m.failed != 0 {
			t.Errorf("untraced warm-job: %v, %d failed (%v)", err, m.failed, m.firstErr)
		}
	})
}
