package machine

import (
	"math"
	"testing"

	"dynasym/internal/profile"
	"dynasym/internal/topology"
)

func newTX2() (*topology.Platform, *Model) {
	topo := topology.TX2()
	m := New(topo)
	m.JitterRel = 0 // deterministic durations in tests
	return topo, m
}

func TestComputeBoundScaling(t *testing.T) {
	topo, m := newTX2()
	_ = topo
	c := Cost{Ops: 2.035e9} // exactly one second on a speed-1 core at base clock
	d := m.Duration(c, topology.Place{Leader: 2, Width: 1}, 0, NoJitter)
	if math.Abs(d-1.0) > 0.01 {
		t.Fatalf("A57 compute duration %g, want ~1.0", d)
	}
	// The Denver core is 4× faster.
	dd := m.Duration(c, topology.Place{Leader: 0, Width: 1}, 0, NoJitter)
	if math.Abs(dd-0.25) > 0.01 {
		t.Fatalf("Denver duration %g, want ~0.25", dd)
	}
}

func TestWidthPenalty(t *testing.T) {
	_, m := newTX2()
	c := Cost{Ops: 2.035e9, WidthPenalty: 0.5}
	w1 := m.Duration(c, topology.Place{Leader: 2, Width: 1}, 0, NoJitter)
	w4 := m.Duration(c, topology.Place{Leader: 2, Width: 4}, 0, NoJitter)
	// Ideal would be w1/4; the penalty multiplies by 1+0.5×3 = 2.5.
	want := w1 / 4 * 2.5
	if math.Abs(w4-want) > 0.02*want {
		t.Fatalf("width-4 duration %g, want ~%g", w4, want)
	}
}

func TestAvailabilityHalvesSpeed(t *testing.T) {
	_, m := newTX2()
	m.SetCoreAvail(0, profile.Constant(0.5))
	c := Cost{Ops: 2.035e9}
	full := m.Duration(c, topology.Place{Leader: 1, Width: 1}, 0, NoJitter)
	half := m.Duration(c, topology.Place{Leader: 0, Width: 1}, 0, NoJitter)
	if math.Abs(half/full-2.0) > 0.02 {
		t.Fatalf("time-shared core ratio %g, want ~2", half/full)
	}
}

func TestStragglerDominatesAssembly(t *testing.T) {
	_, m := newTX2()
	m.SetCoreAvail(0, profile.Constant(0.5))
	c := Cost{Ops: 2.035e9}
	// Width-2 place including the interfered core 0: the slow member
	// bounds completion.
	d2 := m.Duration(c, topology.Place{Leader: 0, Width: 2}, 0, NoJitter)
	slowAlone := m.Duration(Cost{Ops: c.Ops / 2}, topology.Place{Leader: 0, Width: 1}, 0, NoJitter)
	if d2 < slowAlone*0.99 {
		t.Fatalf("assembly %g finished before its slowest member %g", d2, slowAlone)
	}
}

func TestMemoryBound(t *testing.T) {
	_, m := newTX2()
	// Pure streaming: 16 MB against the per-core share of 30 GB/s / 6.
	c := Cost{Ops: 1, Bytes: 16e6}
	d := m.Duration(c, topology.Place{Leader: 2, Width: 1}, 0, NoJitter)
	want := 16e6 / (30e9 / 6)
	if math.Abs(d-want) > 0.05*want {
		t.Fatalf("streaming duration %g, want ~%g", d, want)
	}
	// Width 4 gets 4 shares.
	d4 := m.Duration(c, topology.Place{Leader: 2, Width: 4}, 0, NoJitter)
	if math.Abs(d4-want/4) > 0.1*want/4 {
		t.Fatalf("width-4 streaming %g, want ~%g", d4, want/4)
	}
}

func TestCacheFitDiscountsTraffic(t *testing.T) {
	_, m := newTX2()
	small := Cost{Ops: 1, Bytes: 16e6, WorkingSet: 16 << 10} // fits L1
	big := Cost{Ops: 1, Bytes: 16e6, WorkingSet: 64 << 20}   // fits nothing
	ds := m.Duration(small, topology.Place{Leader: 2, Width: 1}, 0, NoJitter)
	db := m.Duration(big, topology.Place{Leader: 2, Width: 1}, 0, NoJitter)
	if ds >= db {
		t.Fatalf("L1-resident %g not faster than DRAM-bound %g", ds, db)
	}
	ratio := db / ds
	if math.Abs(ratio-1/l1MissFactor) > 0.4/l1MissFactor {
		t.Fatalf("miss-factor ratio %g, want ~%g", ratio, 1/l1MissFactor)
	}
}

func TestSharedBytesReplicatePerMember(t *testing.T) {
	_, m := newTX2()
	c := Cost{Ops: 1, SharedBytes: 8e6}
	w1 := m.Duration(c, topology.Place{Leader: 2, Width: 1}, 0, NoJitter)
	w4 := m.Duration(c, topology.Place{Leader: 2, Width: 4}, 0, NoJitter)
	// Replicated traffic does not shrink with width; with per-member
	// bandwidth shares equal, duration stays roughly constant.
	if w4 < 0.9*w1 {
		t.Fatalf("replicated traffic sped up with width: w1=%g w4=%g", w1, w4)
	}
}

func TestDVFSSlowdownMidTask(t *testing.T) {
	_, m := newTX2()
	// Clock drops to half speed at t=1.
	m.SetClusterFreq(0, profile.MustSteps(
		profile.Segment{Start: 0, Value: 2.035e9},
		profile.Segment{Start: 1, Value: 2.035e9 / 2},
	))
	// Two seconds of work at full speed on Denver (speed 4): Ops for 2s
	// = 4 × 2.035e9 × 2.
	c := Cost{Ops: 4 * 2.035e9 * 2}
	d := m.Duration(c, topology.Place{Leader: 0, Width: 1}, 0, NoJitter)
	// First second does half the work; the rest takes 2 more seconds.
	if math.Abs(d-3.0) > 0.01 {
		t.Fatalf("DVFS mid-task duration %g, want ~3.0", d)
	}
}

func TestOverheadAndJitterAdd(t *testing.T) {
	_, m := newTX2()
	// A task with no work costs exactly the fixed per-task overhead.
	if d := m.Duration(Cost{}, topology.Place{Leader: 2, Width: 1}, 0, NoJitter); d != overhead {
		t.Fatalf("empty task took %g, want the overhead %g", d, overhead)
	}
	c := Cost{Ops: 2.035e9}
	base := m.Duration(c, topology.Place{Leader: 2, Width: 1}, 0, NoJitter)
	noisy := m.Duration(c, topology.Place{Leader: 2, Width: 1}, 0, Jitter{Mul: 1, Add: 0.5})
	if math.Abs(noisy-base-0.5) > 1e-9 {
		t.Fatalf("additive jitter: %g - %g != 0.5", noisy, base)
	}
	mul := m.Duration(c, topology.Place{Leader: 2, Width: 1}, 0, Jitter{Mul: 2})
	if mul < 1.9*(base-overhead) {
		t.Fatalf("multiplicative jitter: %g vs base %g", mul, base)
	}
}

func TestStartOffset(t *testing.T) {
	_, m := newTX2()
	c := Cost{Ops: 2.035e9}
	d0 := m.Duration(c, topology.Place{Leader: 2, Width: 1}, 0, NoJitter)
	d5 := m.Duration(c, topology.Place{Leader: 2, Width: 1}, 5, NoJitter)
	if math.Abs((d5-5)-d0) > 1e-9 {
		t.Fatalf("start offset broke duration: %g vs %g", d5-5, d0)
	}
}

func TestAmdahlSerialFraction(t *testing.T) {
	_, m := newTX2()
	c := Cost{Ops: 2.035e9, ParallelFraction: 0.5}
	w1 := m.Duration(c, topology.Place{Leader: 2, Width: 1}, 0, NoJitter)
	w4 := m.Duration(c, topology.Place{Leader: 2, Width: 4}, 0, NoJitter)
	// Amdahl: 0.5 + 0.5/4 = 0.625 of serial time.
	want := w1 * 0.625
	if math.Abs(w4-want) > 0.05*want {
		t.Fatalf("Amdahl width-4 %g, want ~%g", w4, want)
	}
}

func TestInvalidPlacePanics(t *testing.T) {
	_, m := newTX2()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid place did not panic")
		}
	}()
	m.Duration(Cost{Ops: 1}, topology.Place{Leader: 1, Width: 2}, 0, NoJitter)
}

func TestZeroJitterPanics(t *testing.T) {
	_, m := newTX2()
	defer func() {
		if recover() == nil {
			t.Fatal("zero jitter did not panic")
		}
	}()
	m.Duration(Cost{Ops: 1}, topology.Place{Leader: 0, Width: 1}, 0, Jitter{})
}

func TestBandwidthFrequencyCap(t *testing.T) {
	_, m := newTX2()
	// At 345 MHz the per-core bandwidth cap (2.5 B/cycle) binds:
	// 2.5 × 345e6 ≈ 0.86 GB/s < the 5 GB/s share.
	m.SetClusterFreq(1, profile.Constant(345e6))
	c := Cost{Ops: 1, Bytes: 1e9}
	d := m.Duration(c, topology.Place{Leader: 2, Width: 1}, 0, NoJitter)
	want := 1e9 / (2.5 * 345e6)
	if math.Abs(d-want) > 0.05*want {
		t.Fatalf("low-frequency streaming %g, want ~%g", d, want)
	}
}

func BenchmarkDurationConstant(b *testing.B) {
	_, m := newTX2()
	c := Cost{Ops: 1e6, Bytes: 1e5, WorkingSet: 1e5}
	pl := topology.Place{Leader: 2, Width: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Duration(c, pl, 0, NoJitter)
	}
}

func BenchmarkDurationDVFS(b *testing.B) {
	_, m := newTX2()
	m.SetClusterFreq(0, profile.SquareWave(2.035e9, 345e6, 5, 5))
	c := Cost{Ops: 1e6}
	pl := topology.Place{Leader: 0, Width: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Duration(c, pl, float64(i%10), NoJitter)
	}
}

// Duration's constant shortcut (rateConst, bwConst) is bit-identical to
// profile.TimeToDo on the same constant profile: with the shortcut taken
// away, every duration is the same float.
func TestConstantShortcutMatchesTimeToDo(t *testing.T) {
	topo, fast := newTX2()
	_, scan := newTX2()
	for _, m := range []*Model{fast, scan} {
		m.SetCoreAvail(3, profile.Constant(0.37))
		m.SetClusterBandwidth(1, profile.Constant(3.3e9))
	}
	for core := range scan.rates {
		r := &scan.rates[core]
		if r.rateConst == 0 || r.bwConst == 0 {
			t.Fatalf("core %d: constant profiles without a shortcut", core)
		}
		r.rateConst, r.bwConst = 0, 0
	}
	var places []topology.Place
	for leader := 0; leader < topo.NumCores(); leader++ {
		for width := 1; width <= topo.NumCores(); width++ {
			if pl := (topology.Place{Leader: leader, Width: width}); topo.Valid(pl) {
				places = append(places, pl)
			}
		}
	}
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x%1_000_000) / 1_000_000
	}
	for i := 0; i < 2000; i++ {
		c := Cost{
			Ops: rnd() * 1e9, Bytes: rnd() * 1e8, SharedBytes: rnd() * 1e6,
			WorkingSet: rnd() * 1e7, WidthPenalty: rnd() / 4, ParallelFraction: rnd(),
		}
		if i%13 == 0 {
			c.Ops = 0
		}
		pl := places[i%len(places)]
		start := rnd() * 100
		j := Jitter{Mul: 0.5 + rnd()}
		a, b := fast.Duration(c, pl, start, j), scan.Duration(c, pl, start, j)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%+v on %v at %v: shortcut %v, TimeToDo %v", c, pl, start, a, b)
		}
	}
}
