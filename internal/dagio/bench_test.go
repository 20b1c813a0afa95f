package dagio

import "testing"

// BenchmarkImportDOT measures the full DOT import path — tokenize,
// parse, normalize, validate — on the bundled demo graph. This is the
// per-submission cost a service pays to accept an external task graph.
func BenchmarkImportDOT(b *testing.B) {
	data := []byte(DemoDOT)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseDOT(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildCholesky measures generator expansion plus dag.Graph
// construction for a 16-tile Cholesky (816 tasks) — the cold-cache cost
// of materializing a generated workload before a cell runs.
func BenchmarkBuildCholesky(b *testing.B) {
	cfg := GenConfig{Model: ModelCholesky, Tiles: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := cfg.Graph()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildCholeskyAmortized measures the same 816-task workload's
// per-cell construction cost on a same-graph sweep through the compiled
// path: the graph is generated and frozen once, and each iteration pays
// only what one sweep cell pays for its graph — a copy of the snapshot's
// dependency counts and the scan for the ready ones. This is the number
// BenchmarkBuildCholesky's full rebuild is amortized down to.
func BenchmarkBuildCholeskyAmortized(b *testing.B) {
	cfg := GenConfig{Model: ModelCholesky, Tiles: 16}
	gs, err := cfg.Graph()
	if err != nil {
		b.Fatal(err)
	}
	g, err := gs.Build()
	if err != nil {
		b.Fatal(err)
	}
	fz, err := g.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	var pending []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pending = fz.AppendPending(pending[:0])
		ready := 0
		for _, deps := range pending {
			if deps == 0 {
				ready++
			}
		}
		if ready == 0 {
			b.Fatal("frozen graph has no ready tasks")
		}
	}
}
