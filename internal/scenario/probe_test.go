package scenario

import (
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dagio"
	"dynasym/internal/workloads"
)

// probeWorkloads enumerates one workload spec per probed kind (HeatDist is
// excluded: probes are ignored for distributed cells).
func probeWorkloads() map[string]WorkloadSpec {
	return map[string]WorkloadSpec{
		"synthetic": {Kind: Synthetic, Synthetic: workloads.SyntheticConfig{
			Kernel: workloads.MatMul, Tasks: 300,
		}},
		"kmeans": {Kind: KMeans, KMeans: workloads.KMeansConfig{
			N: 400, K: 3, Grains: 8, MaxIters: 3,
		}},
		"daggen": {Kind: DAGGen, DAGGen: dagio.GenConfig{
			Model: dagio.ModelCholesky, Tiles: 5,
		}},
		"dagfile": {Kind: DAGFile, DAG: dagio.Demo()},
	}
}

// The probe must be invisible in the results: a probed run's fingerprint
// must be byte-identical to the unprobed run's, for every Table-1 policy
// and every probed workload kind. This is the tentpole's acceptance gate —
// telemetry describes the schedule, it must never change it.
func TestProbeFingerprintNeutral(t *testing.T) {
	for wname, w := range probeWorkloads() {
		w := w
		t.Run(wname, func(t *testing.T) {
			t.Parallel()
			s := Spec{
				Name:     "probe-neutral-" + wname,
				Platform: PlatformSpec{Preset: "tx2"},
				Workload: w,
				Disturb: []Disturbance{
					{Kind: Burst, Cluster: 1, Share: 0.4, BusyDur: 0.1, IdleDur: 0.2, PhaseStep: 0.05},
				},
				Policies: core.All(),
				Reps:     2,
				Seed:     42,
			}
			off, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			s.Probe = true
			on, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if off.Fingerprint() != on.Fingerprint() {
				t.Fatalf("probe changed the schedule:\n--- probe off\n%s\n--- probe on\n%s", off.FingerprintText(), on.FingerprintText())
			}
			// The probed run must actually carry telemetry for every cell.
			for pi := range on.Cells {
				for xi := range on.Cells[pi] {
					for rep, run := range on.Cells[pi][xi].Runs {
						if run.Sched == nil {
							t.Fatalf("probed run %s/%s rep %d has no Sched telemetry",
								on.Policies[pi], on.Points[xi].Label, rep)
						}
					}
					if off.Cells[pi][xi].Runs[0].Sched != nil {
						t.Fatal("unprobed run carries Sched telemetry")
					}
				}
			}
		})
	}
}

// RunCellTrace reproduces any cell's schedule on demand — including cells
// whose canonical result came from elsewhere — and its metrics must match
// the cell's canonical metrics bit for bit: it leaves sealed with the plain
// run's digest, and so does a probed run.
func TestRunCellTraceMatchesCanonicalRun(t *testing.T) {
	spec := Spec{
		Name:     "probe-trace",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{
			Kernel: workloads.MatMul, Tasks: 200,
		}},
		Policies: []core.Policy{core.DAMC(), core.RWS()},
		Points:   ParallelismPoints(2, 4),
		Reps:     2,
		Seed:     7,
	}
	plan, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Probe = true
	probedPlan, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []CellJob{plan.Cells[0], plan.Cells[len(plan.Cells)-1]} {
		canonical, err := plan.RunCellState(NewCellState(), c)
		if err != nil {
			t.Fatal(err)
		}
		probed, err := probedPlan.RunCellState(NewCellState(), c)
		if err != nil {
			t.Fatal(err)
		}
		if probed.Sched == nil || canonical.digest == ([32]byte{}) || probed.digest != canonical.digest {
			t.Fatalf("probed cell: Sched %v, digest %x; plain run sealed %x", probed.Sched != nil, probed.digest, canonical.digest)
		}
		rm, rec, err := plan.RunCellTrace(c)
		if err != nil {
			t.Fatal(err)
		}
		if rm.Makespan != canonical.Makespan || rm.TasksDone != canonical.TasksDone ||
			rm.Steals != canonical.Steals || rm.Dispatches != canonical.Dispatches {
			t.Fatalf("traced cell diverged from canonical run: traced=%+v canonical=%+v", rm, canonical)
		}
		if rm.digest != canonical.digest {
			t.Fatalf("traced cell sealed %x, plain run %x", rm.digest, canonical.digest)
		}
		if rm.Sched == nil {
			t.Fatal("traced cell carries no Sched telemetry")
		}
		if rec.Len() == 0 || len(rec.Counters()) == 0 {
			t.Fatalf("traced cell recorded %d events, %d counter points", rec.Len(), len(rec.Counters()))
		}
	}
}
