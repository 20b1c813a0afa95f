package core

import (
	"testing"

	"dynasym/internal/ptt"
	"dynasym/internal/topology"
)

func TestSampledDelegatesLowPriority(t *testing.T) {
	topo := topology.TX2()
	tbl := trainedTable(topo)
	s := NewSampled(DAMC(), 4)
	pl := s.DispatchPlace(ctxFor(topo, tbl, 4, false))
	want := DAMC().DispatchPlace(ctxFor(topo, tbl, 4, false))
	if pl != want {
		t.Fatalf("sampled low dispatch %v != wrapped %v", pl, want)
	}
}

func TestSampledFindsGoodPlaceOnLargePlatform(t *testing.T) {
	topo := topology.HaswellNode(0) // 20 cores, 36 places
	tbl := ptt.NewTable(topo, 1)
	for _, pl := range topo.Places() {
		tbl.Update(pl, 10.0) // everything slow...
	}
	gold := topology.Place{Leader: 15, Width: 1}
	tbl.Update(gold, 1.0) // ...except one core
	s := NewSampled(DAMC(), 16)
	found := 0
	const trials = 50
	ctx := ctxFor(topo, tbl, 3, true) // one context: the RNG advances per decision
	for i := 0; i < trials; i++ {
		if s.DispatchPlace(ctx) == gold {
			found++
		}
	}
	// With 16 samples over 54 places the golden core should be found in
	// a clear majority of decisions.
	if found < trials/3 {
		t.Fatalf("sampled search found the fast core in only %d/%d trials", found, trials)
	}
}

func TestSampledNeverReturnsInvalidPlace(t *testing.T) {
	topo := topology.TX2()
	tbl := trainedTable(topo)
	s := NewSampled(DAMP(), 4)
	for i := 0; i < 200; i++ {
		ctx := ctxFor(topo, tbl, i%6, true)
		if pl := s.DispatchPlace(ctx); !topo.Valid(pl) {
			t.Fatalf("invalid place %v", pl)
		}
	}
}

func TestSampledName(t *testing.T) {
	if got := NewSampled(DAMC(), 12).Name(); got != "DAM-C~12" {
		t.Fatalf("name = %q", got)
	}
}

func BenchmarkFullGlobalSearch80Cores(b *testing.B) {
	topo := topology.ScaleOut(10, 8)
	tbl := ptt.NewTable(topo, 0)
	for _, pl := range topo.Places() {
		tbl.Update(pl, 1.0)
	}
	ctx := ctxFor(topo, tbl, 3, true)
	p := DAMC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.DispatchPlace(ctx)
	}
}

func BenchmarkSampledSearch80Cores(b *testing.B) {
	topo := topology.ScaleOut(10, 8)
	tbl := ptt.NewTable(topo, 0)
	for _, pl := range topo.Places() {
		tbl.Update(pl, 1.0)
	}
	ctx := ctxFor(topo, tbl, 3, true)
	p := NewSampled(DAMC(), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.DispatchPlace(ctx)
	}
}
