package interfere

import (
	"math"
	"testing"

	"dynasym/internal/machine"
	"dynasym/internal/topology"
)

func newModel() *machine.Model {
	return machine.New(topology.TX2())
}

// The scenarios are read back the way the runtime observes them: through
// machine.Duration, never through the profiles they installed.

// seconds is what the model charges a width-1 task of cost c started on
// core at time at.
func seconds(m *machine.Model, c machine.Cost, core int, at float64) float64 {
	return m.Duration(c, topology.Place{Leader: core, Width: 1}, at, machine.NoJitter) - at
}

// rateAt is core's compute rate (ops/s) at time at: a compute-only task
// short enough (under 2 ms at every rate these tests install) to stay inside
// one plateau, less the fixed per-task overhead a zero-cost task measures.
func rateAt(m *machine.Model, core int, at float64) float64 {
	const ops = 1e6
	return ops / (seconds(m, machine.Cost{Ops: ops}, core, at) - seconds(m, machine.Cost{}, core, at))
}

// availAt is the share of core's cycles the runtime gets at time at, on a
// cluster at its nominal clock.
func availAt(m *machine.Model, core int, at float64) float64 {
	cl := m.Platform().Cluster(m.Platform().ClusterOf(core))
	return rateAt(m, core, at) / (cl.Speed * cl.BaseHz)
}

// clockAt is cluster ci's clock at time at, read on its first core, which
// the tests leave fully available.
func clockAt(m *machine.Model, ci int, at float64) float64 {
	return rateAt(m, m.Platform().CoresOf(ci)[0], at) / m.Platform().Cluster(ci).Speed
}

// near reports whether a and b agree to the precision rateAt reads.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(a), math.Abs(b)) }

func TestCoRunCPU(t *testing.T) {
	m := newModel()
	CoRunCPU(m, []int{0, 2}, 0.5)
	for _, c := range []int{0, 2} {
		if v := availAt(m, c, 3); !near(v, 0.5) {
			t.Fatalf("core %d avail %g, want 0.5", c, v)
		}
	}
	if v := availAt(m, 1, 3); !near(v, 1) {
		t.Fatal("untouched core lost availability")
	}
}

func TestCoRunCPUEpisode(t *testing.T) {
	m := newModel()
	CoRunCPUEpisode(m, []int{1}, 0.4, 2, 5)
	for _, c := range []struct{ at, want float64 }{
		{1, 1}, {2, 0.4}, {4.9, 0.4}, {5, 1},
	} {
		if v := availAt(m, 1, c.at); !near(v, c.want) {
			t.Fatalf("avail at %g = %g, want %g", c.at, v, c.want)
		}
	}
}

func TestCoRunMemory(t *testing.T) {
	m := newModel()
	// A factor of 0.2 leaves each Denver core 30 GB/s × 0.2 / 2 = 3 GB/s,
	// below what one core streams at its clock (2.5 B × 2.035 GHz), so the
	// loss shows in a streaming task's duration.
	CoRunMemory(m, 0, 0.5, 0.2)
	if v := availAt(m, 0, 0); !near(v, 0.5) {
		t.Fatal("victim core not time-shared")
	}
	stream := machine.Cost{Bytes: 3e8}
	base := m.Platform().Cluster(0).MemBandwidth
	want := stream.Bytes / (base * 0.2 / 2)
	// Core 1 shares the victim cluster's bandwidth but not the core.
	if d := seconds(m, stream, 1, 0) - seconds(m, machine.Cost{}, 1, 0); math.Abs(d-want) > 1e-9 {
		t.Fatalf("streaming on the victim cluster took %g s, want %g", d, want)
	}
	// The other cluster keeps its bandwidth.
	if d, fresh := seconds(m, stream, 2, 0), seconds(newModel(), stream, 2, 0); d != fresh {
		t.Fatalf("non-victim cluster streams in %g s, want %g", d, fresh)
	}
}

func TestPaperDVFS(t *testing.T) {
	m := newModel()
	DVFS(m, 0, PaperHiHz, PaperLoHz, PaperHiDur, PaperLoDur)
	for _, c := range []struct {
		what     string
		at, want float64
	}{
		{"high phase", 0, 2035e6}, {"low phase", 7, 345e6}, {"wrap-around", 12, 2035e6},
	} {
		if v := clockAt(m, 0, c.at); !near(v, c.want) {
			t.Fatalf("%s: clock %g, want %g", c.what, v, c.want)
		}
	}
	// The other cluster keeps its nominal clock.
	if v, want := clockAt(m, 1, 7), m.Platform().Cluster(1).BaseHz; !near(v, want) {
		t.Fatalf("non-victim cluster clock %g, want %g", v, want)
	}
}

func TestStall(t *testing.T) {
	m := newModel()
	Stall(m, 3, 1, 2)
	// A task started inside the stall waits it out.
	if d := seconds(m, machine.Cost{Ops: 1e6}, 3, 1.5); d < 0.5 {
		t.Fatalf("a task started at 1.5 inside the stall took %g s", d)
	}
	if v := availAt(m, 3, 2.5); !near(v, 1) {
		t.Fatal("stall did not end")
	}
}
