package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.add(-2)
	if got := g.value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestNilMetricsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Inc()
	h.Observe(0.5)
	if c.Value() != 0 || g.value() != 0 || h.loadCount() != 0 || h.loadSum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
}

func TestGetOrCreateReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "h", L("peer", "x"))
	b := r.Counter("dup_total", "h", L("peer", "x"))
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	other := r.Counter("dup_total", "h", L("peer", "y"))
	if a == other {
		t.Fatal("different labels must return a different series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("clash", "h")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9lead", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q must panic", bad)
				}
			}()
			r.Counter(bad, "h")
		}()
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if got := h.loadCount(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got := h.loadSum(); got != 106.65 {
		t.Fatalf("sum = %g, want 106.65", got)
	}
	var sb strings.Builder
	if err := r.writePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// le is upper-inclusive and cumulative: 0.05 and 0.1 land in le=0.1.
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="10"} 5`,
		`lat_seconds_bucket{le="+Inf"} 6`,
		`lat_seconds_sum 106.65`,
		`lat_seconds_count 6`,
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second").Add(2)
	r.Counter("a_total", "first", L("peer", `quo"te`)).Inc()
	r.Gauge("a_gauge", "g").Set(-3)
	var sb strings.Builder
	if err := r.writePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP a_total first\n# TYPE a_total counter\n" + `a_total{peer="quo\"te"} 1`,
		"# TYPE a_gauge gauge\na_gauge -3",
		"# TYPE b_total counter\nb_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families are sorted by name for stable scrapes.
	if strings.Index(out, "a_gauge") > strings.Index(out, "b_total") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("bucket %d = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestConcurrentUpdatesAndScrapes races every metric kind against
// exposition; run with -race.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("con_total", "c")
	g := r.Gauge("con_gauge", "g")
	h := r.Histogram("con_seconds", "h", ExpBuckets(0.001, 10, 6))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Inc()
				g.add(1)
				h.Observe(float64(i) * 1e-4)
			}
		}()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var sb strings.Builder
				if err := r.writePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				// Re-registration during scrapes must stay safe too.
				r.Counter("con_total", "c").Inc()
				r.Gauge("late_gauge", "born mid-scrape", L("w", string(rune('a'+w)))).Set(int64(i))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 4*2000+4*50 {
		t.Fatalf("counter = %d, want %d", c.Value(), 4*2000+4*50)
	}
	if h.loadCount() != 4*2000 {
		t.Fatalf("histogram count = %d, want %d", h.loadCount(), 4*2000)
	}
}

// TestHotPathZeroAllocs is the alloc-regression gate for the exact
// update sequence the service's cell hot path performs per cell: two
// counters, a gauge swing and two histogram observations must not
// allocate.
func TestHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hp_total", "c")
	c2 := r.Counter("hp2_total", "c")
	g := r.Gauge("hp_gauge", "g")
	h := r.Histogram("hp_seconds", "h", ExpBuckets(1e-4, 10, 7))
	h2 := r.Histogram("hp2_seconds", "h", ExpBuckets(1e-3, 10, 6))
	allocs := testing.AllocsPerRun(1000, func() {
		g.Inc()
		c.Inc()
		c2.Add(3)
		h.Observe(0.0123)
		h2.Observe(1.5)
		g.Dec()
	})
	if allocs != 0 {
		t.Fatalf("hot-path metric updates allocate %.1f times/op, want 0", allocs)
	}
}
