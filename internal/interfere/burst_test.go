package interfere

import (
	"testing"

	"dynasym/internal/topology"
)

func TestBurstCPUPhaseShifts(t *testing.T) {
	m := newModel()
	cores := []int{2, 3, 4, 5}
	BurstCPU(m, cores, 0.4, 1, 2, 0, 1)
	// Core 2 (phase 0): burst active at t=0.5, idle at t=1.5.
	if v := availAt(m, 2, 0.5); !near(v, 0.4) {
		t.Fatalf("core 2 at 0.5: %g, want 0.4", v)
	}
	if v := availAt(m, 2, 1.5); !near(v, 1) {
		t.Fatalf("core 2 at 1.5: %g, want 1.0", v)
	}
	// Core 3 is shifted one second left: its wave at t equals core 2's at
	// t+1 (away from boundaries).
	for _, tm := range []float64{0.2, 0.7, 1.4, 2.6, 5.1} {
		if a, b := availAt(m, 3, tm), availAt(m, 2, tm+1); !near(a, b) {
			t.Fatalf("phase shift broken at t=%g: core3=%g core2(t+1)=%g", tm, a, b)
		}
	}
	// Untouched cores keep full availability.
	if v := availAt(m, 0, 0.5); !near(v, 1) {
		t.Fatal("untouched core lost availability")
	}
	// The staggered bursts never all fire at once with this geometry:
	// at any time at least one of the four cores is fully available.
	for tm := 0.05; tm < 6; tm += 0.1 {
		all := true
		for _, c := range cores {
			if near(availAt(m, c, tm), 1) {
				all = false
				break
			}
		}
		if all {
			t.Fatalf("all cores bursted simultaneously at t=%g", tm)
		}
	}
}

func TestThrottleRamp(t *testing.T) {
	m := newModel()
	base := m.Platform().Cluster(0).BaseHz
	ThrottleRamp(m, 0, 2, 6, 0.25, 4)
	// Before the ramp: base frequency.
	if v := clockAt(m, 0, 1); !near(v, base) {
		t.Fatalf("pre-ramp freq %g, want %g", v, base)
	}
	// The clock only decreases, in steps, down to the floor.
	prev := clockAt(m, 0, 0)
	for tm := 0.25; tm < 10; tm += 0.25 {
		v := clockAt(m, 0, tm)
		if v > prev*(1+1e-9) {
			t.Fatalf("clock recovered at t=%g: %g after %g", tm, v, prev)
		}
		prev = v
	}
	// After the ramp: the floor, forever.
	floor := 0.25 * base
	for _, tm := range []float64{6, 7, 1e6} {
		if v := clockAt(m, 0, tm); !near(v, floor) {
			t.Fatalf("post-ramp freq at %g: %g, want %g", tm, v, floor)
		}
	}
	// The first step starts exactly at from=2.
	if v := clockAt(m, 0, 2.01); v >= base {
		t.Fatalf("ramp did not start at from: %g", v)
	}
}

func TestScaleOutPreset(t *testing.T) {
	topo := topology.ScaleOut(4, 4)
	if topo.NumCores() != 16 || topo.NumClusters() != 4 {
		t.Fatalf("got %d cores in %d clusters", topo.NumCores(), topo.NumClusters())
	}
	// Speeds alternate big/little.
	for i := 0; i < 4; i++ {
		want := 4.0
		if i%2 == 1 {
			want = 1.0
		}
		if got := topo.Cluster(i).Speed; got != want {
			t.Errorf("cluster %d speed %g, want %g", i, got, want)
		}
	}
	// Widths are the powers of two up to the cluster size.
	c := topo.Cluster(0)
	if len(c.Widths) != 3 || c.Widths[0] != 1 || c.Widths[2] != 4 {
		t.Errorf("widths %v, want [1 2 4]", c.Widths)
	}
	if topo.FastestCluster() != 0 {
		t.Errorf("fastest cluster %d, want 0", topo.FastestCluster())
	}
}
