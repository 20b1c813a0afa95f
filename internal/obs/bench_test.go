package obs

import (
	"io"
	"testing"
)

// BenchmarkCounterInc is one atomic add — the floor for any
// instrumentation cost.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "b")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkHistogramObserve is one latency observation: bucket scan,
// two atomic adds and the float-bits CAS on the sum.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "b", ExpBuckets(1e-4, 10, 7))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0123)
	}
}

// BenchmarkMetricsHotPath is the full per-cell instrumentation bill the
// service pays on its hot path (pool gauge swing, run counter, two
// duration histograms) — the number BENCH_PR8 tracks so observability
// overhead regresses like any other perf property.
func BenchmarkMetricsHotPath(b *testing.B) {
	r := NewRegistry()
	busy := r.Gauge("bench_pool_busy", "b")
	runs := r.Counter("bench_cell_runs_total", "b")
	cellSec := r.Histogram("bench_cell_seconds", "b", ExpBuckets(1e-4, 10, 7))
	rtt := r.Histogram("bench_rtt_seconds", "b", ExpBuckets(1e-3, 10, 6))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		busy.Inc()
		runs.Inc()
		cellSec.Observe(0.0042)
		rtt.Observe(0.017)
		busy.Dec()
	}
}

// BenchmarkWritePrometheus is one full scrape of a realistically sized
// registry (a few dozen series) — the cost a 10s scrape interval pays.
func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for _, n := range []string{"a_total", "b_total", "c_total", "d_total"} {
		for _, p := range []string{"p1", "p2", "p3", "p4"} {
			r.Counter(n, "bench", L("peer", p)).Add(12345)
		}
	}
	for _, n := range []string{"x_seconds", "y_seconds", "z_seconds"} {
		h := r.Histogram(n, "bench", ExpBuckets(1e-4, 10, 10))
		for i := 0; i < 100; i++ {
			h.Observe(float64(i) * 1e-3)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.writePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
