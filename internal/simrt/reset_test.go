package simrt

import (
	"reflect"
	"sync"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dag"
	"dynasym/internal/kernels"
	"dynasym/internal/machine"
	"dynasym/internal/topology"
)

// resetGraph builds a small mixed-priority diamond-chain workload; every
// call returns a structurally identical fresh instance.
func resetGraph() *dag.Graph {
	g := dag.New()
	g.Grow(400, 133)
	cost := kernels.MatMulCost(48)
	for i := int32(0); i < 400; i++ {
		g.Add(dag.Task{
			Label: "reset-probe",
			Type:  kernels.TypeMatMul,
			High:  i%8 == 0,
			Cost:  cost,
			Iter:  int(i / 40),
		})
		if i > 0 && i%3 == 0 {
			g.AddEdge(i-1, i)
		}
	}
	return g
}

// runOnce executes one fresh graph on rt and returns a compact result
// signature: the makespan bits plus the per-core scheduler counters.
func runOnce(t *testing.T, rt *Runtime) (float64, []Stats) {
	t.Helper()
	coll, err := rt.Run(resetGraph())
	if err != nil {
		t.Fatal(err)
	}
	if coll.TasksDone() != 400 {
		t.Fatalf("run completed %d tasks, want 400", coll.TasksDone())
	}
	return rt.Collector().Makespan(), rt.CoreStats()
}

// A reset runtime must replay a fresh runtime's execution bit for bit:
// same makespan, same per-core steal/dispatch counters, for every Table-1
// policy. This pins Reset's contract at the layer that owns it (the
// scenario-level fingerprint tests pin the end-to-end metrics).
func TestResetMatchesNew(t *testing.T) {
	for _, pol := range core.All() {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			t.Parallel()
			topo := topology.TX2()
			model := machine.New(topo)
			cfg := Config{Topo: topo, Model: model, Policy: pol, Seed: 31}
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantMk, wantStats := runOnce(t, fresh)

			reused, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Dirty the runtime with a different seed first so Reset has
			// real state to erase.
			dirty := cfg
			dirty.Seed = 99
			if _, ds := runOnce(t, reused); len(ds) == 0 {
				t.Fatal("dirty run recorded no cores")
			}
			if err := reused.Reset(dirty); err != nil {
				t.Fatal(err)
			}
			if _, err := reused.Run(resetGraph()); err != nil {
				t.Fatal(err)
			}
			if err := reused.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			gotMk, gotStats := runOnce(t, reused)
			if gotMk != wantMk {
				t.Fatalf("reset runtime makespan %v, fresh %v", gotMk, wantMk)
			}
			for i := range wantStats {
				if gotStats[i] != wantStats[i] {
					t.Fatalf("core %d counters diverged: reset %+v, fresh %+v", i, gotStats[i], wantStats[i])
				}
			}
		})
	}
}

// Reset itself must be allocation-free once the runtime's pools have
// reached their high-water marks — it exists to recycle allocations, so it
// may not introduce its own.
func TestResetAllocs(t *testing.T) {
	topo := topology.TX2()
	model := machine.New(topo)
	cfg := Config{Topo: topo, Model: model, Policy: core.DAMC(), Seed: 7}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm: a few full cycles grow the completion record and queue rings.
	for i := 0; i < 3; i++ {
		runOnce(t, rt)
		if err := rt.Reset(cfg); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := rt.Reset(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reset costs %.1f allocs, want 0", allocs)
	}
	// The runtime must still work after the measurement loop.
	runOnce(t, rt)
}

// signature is everything a run's completion record and counters hold that a
// test can compare bit for bit.
type signature struct {
	Makespan float64
	Busy     []float64
	Stats    []Stats
}

// runGraph executes g on a fresh runtime of cfg. It is called from several
// goroutines at once, so it reports with Error, never Fatal.
func runGraph(t *testing.T, cfg Config, g *dag.Graph) signature {
	rt, err := New(cfg)
	if err != nil {
		t.Error(err)
		return signature{}
	}
	coll, err := rt.Run(g)
	if err != nil || coll.TasksDone() != 400 {
		t.Errorf("run: %v (want 400 tasks done)", err)
		return signature{}
	}
	return signature{coll.Makespan(), coll.CoreBusy(), rt.CoreStats()}
}

// A graph nobody froze is frozen by Run — the snapshot stays on it — and
// runs exactly as its explicitly frozen twin does.
func TestStartFreezesPrivateGraph(t *testing.T) {
	topo := topology.TX2()
	cfg := Config{Topo: topo, Model: machine.New(topo), Policy: core.DAMC(), Seed: 5}
	private, twin := resetGraph(), resetGraph()
	if _, err := twin.Freeze(); err != nil {
		t.Fatal(err)
	}
	got, want := runGraph(t, cfg, private), runGraph(t, cfg, twin)
	if private.Snapshot() == nil {
		t.Error("Start ran an open graph without freezing it")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("private graph ran %+v, its frozen twin %+v", got, want)
	}
}

// One frozen graph serves any number of runtimes at once: four runtimes on
// four goroutines — sharing the platform and machine model too — each produce
// what a lone run does. Under -race this is the check that a run writes
// nothing the graph or its snapshot holds.
func TestFrozenGraphSharedByConcurrentRuntimes(t *testing.T) {
	topo := topology.TX2()
	cfg := Config{Topo: topo, Model: machine.New(topo), Policy: core.DAMC(), Seed: 5}
	g := resetGraph()
	fz, err := g.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	want := runGraph(t, cfg, g)
	got := make([]signature, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = runGraph(t, cfg, g)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("runtime %d of 4 on the shared graph ran %+v, a lone run %+v", i, got[i], want)
		}
	}
	if g.Snapshot() != fz {
		t.Error("a run re-froze the shared graph")
	}
}
