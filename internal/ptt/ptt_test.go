package ptt

import (
	"math"
	"testing"
	"testing/quick"

	"dynasym/internal/topology"
)

func tx2Table(alpha float64) *Table {
	return NewTable(topology.TX2(), alpha)
}

func TestZeroInitialized(t *testing.T) {
	tbl := tx2Table(0)
	for _, pl := range tbl.Platform().Places() {
		if v := tbl.Value(pl); v != 0 {
			t.Fatalf("fresh entry %v = %g, want 0", pl, v)
		}
	}
}

func TestFirstUpdateStoresRawValue(t *testing.T) {
	tbl := tx2Table(0)
	pl := topology.Place{Leader: 1, Width: 1}
	tbl.Update(pl, 0.004)
	if v := tbl.Value(pl); v != 0.004 {
		t.Fatalf("first update stored %g, want 0.004", v)
	}
	if n := tbl.Count(pl); n != 1 {
		t.Fatalf("count = %d, want 1", n)
	}
}

func TestWeightedAverage(t *testing.T) {
	tbl := tx2Table(0) // alpha = 1/5
	pl := topology.Place{Leader: 0, Width: 2}
	tbl.Update(pl, 1.0)
	tbl.Update(pl, 2.0)
	// (4×1.0 + 1×2.0)/5 = 1.2
	if v := tbl.Value(pl); math.Abs(v-1.2) > 1e-12 {
		t.Fatalf("weighted update gave %g, want 1.2", v)
	}
}

func TestPaperAdaptationSpeed(t *testing.T) {
	// The paper: "after a performance variation, at least three
	// measurements need to be taken before the PTT value becomes closer
	// to the new value" — i.e. the 1:4 weighting damps the first couple
	// of divergent observations but still converges quickly.
	tbl := tx2Table(0)
	pl := topology.Place{Leader: 2, Width: 1}
	tbl.Update(pl, 1.0) // steady state
	tbl.Update(pl, 2.0) // interference begins: observations double
	tbl.Update(pl, 2.0)
	v2 := tbl.Value(pl)
	if math.Abs(v2-2.0) < math.Abs(v2-1.0) {
		t.Fatalf("after only two divergent updates value %g already closer to new (too aggressive)", v2)
	}
	for i := 0; i < 8; i++ {
		tbl.Update(pl, 2.0)
	}
	if v := tbl.Value(pl); math.Abs(v-2.0) > 0.25 {
		t.Fatalf("after ten divergent updates value %g has not converged toward 2.0", v)
	}
}

func TestAlphaOneReplaces(t *testing.T) {
	tbl := tx2Table(1.0)
	pl := topology.Place{Leader: 0, Width: 1}
	tbl.Update(pl, 5)
	tbl.Update(pl, 1)
	if v := tbl.Value(pl); v != 1 {
		t.Fatalf("alpha=1 should replace, got %g", v)
	}
}

func TestInvalidObservationsIgnored(t *testing.T) {
	tbl := tx2Table(0)
	pl := topology.Place{Leader: 0, Width: 1}
	tbl.Update(pl, -1)
	tbl.Update(pl, 0)
	tbl.Update(pl, math.Inf(1))
	tbl.Update(pl, math.NaN())
	if v := tbl.Value(pl); v != 0 {
		t.Fatalf("invalid observations changed entry to %g", v)
	}
	tbl.Update(topology.Place{Leader: 1, Width: 4}, 1) // invalid place
	if len(tbl.Snapshot()) != 0 {
		t.Fatal("update to invalid place recorded")
	}
}

func TestValueInvalidPlaceIsInf(t *testing.T) {
	tbl := tx2Table(0)
	if v := tbl.Value(topology.Place{Leader: 1, Width: 2}); !math.IsInf(v, 1) {
		t.Fatalf("invalid place value = %g, want +Inf", v)
	}
}

func TestReset(t *testing.T) {
	tbl := tx2Table(0)
	pl := topology.Place{Leader: 0, Width: 1}
	tbl.Update(pl, 1)
	tbl.Reset()
	if tbl.Value(pl) != 0 || tbl.Count(pl) != 0 {
		t.Fatal("Reset did not clear entries")
	}
}

// Property: an update keeps the value within [min(old,new), max(old,new)].
func TestUpdateBoundedProperty(t *testing.T) {
	tbl := tx2Table(0)
	pl := topology.Place{Leader: 2, Width: 2}
	check := func(obsRaw uint32) bool {
		obs := float64(obsRaw%100000)/1000 + 0.001
		old := tbl.Value(pl)
		tbl.Update(pl, obs)
		v := tbl.Value(pl)
		if old == 0 {
			return v == obs
		}
		lo, hi := math.Min(old, obs), math.Max(old, obs)
		return v >= lo-1e-12 && v <= hi+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshot(t *testing.T) {
	tbl := tx2Table(0)
	a := topology.Place{Leader: 0, Width: 1}
	b := topology.Place{Leader: 2, Width: 4}
	tbl.Update(a, 1)
	tbl.Update(b, 2)
	snap := tbl.Snapshot()
	if len(snap) != 2 || snap[a] != 1 || snap[b] != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestRegistry(t *testing.T) {
	var reg Registry
	reg.Reset(topology.TX2(), 0)
	t1 := reg.Get(0)
	t2 := reg.Get(0)
	if t1 != t2 {
		t.Fatal("Get not idempotent")
	}
	t3 := reg.Get(5)
	if t3 == t1 {
		t.Fatal("different types share a table")
	}
	if got := len(reg.Tables()); got != 6 {
		t.Fatalf("registry has %d slots, want 6", got)
	}
	t1.Update(topology.Place{Leader: 0, Width: 1}, 1)
	reg.Reset(topology.TX2(), 0)
	if t1.Value(topology.Place{Leader: 0, Width: 1}) != 0 || reg.Get(0) != t1 {
		t.Fatal("Reset did not clear the table in place")
	}
}

func BenchmarkUpdate(b *testing.B) {
	tbl := tx2Table(0)
	pl := topology.Place{Leader: 0, Width: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Update(pl, 0.001)
	}
}

func BenchmarkValue(b *testing.B) {
	tbl := tx2Table(0)
	pl := topology.Place{Leader: 2, Width: 4}
	tbl.Update(pl, 0.001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tbl.Value(pl)
	}
}
