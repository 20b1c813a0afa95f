package scenario

import (
	"math"
	"strings"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dagio"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

// okSpec is a minimal valid spec that the failure cases below mutate.
func okSpec() Spec {
	return Spec{
		Name:     "ok",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{Kernel: workloads.MatMul, Tasks: 600}},
		Policies: []core.Policy{core.DAMC()},
	}
}

func TestValidateOK(t *testing.T) {
	if err := okSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	full := okSpec()
	full.Policies, full.Points, full.Reps = []core.Policy{core.RWS(), core.DAMC()}, ParallelismPoints(2, 4), maxGridCells/4
	full.Workload.Synthetic.Tasks = maxJobTasks / maxGridCells
	if err := full.Validate(); err != nil {
		t.Fatalf("a grid of exactly MaxGridCells cells and MaxJobTasks tasks rejected: %v", err)
	}
	// Cells of exactly maxCellTasks tasks (the largest factorizations below
	// it), one per workload kind.
	for name, w := range map[string]WorkloadSpec{
		"synthetic": {Kind: Synthetic, Synthetic: workloads.SyntheticConfig{Tasks: maxCellTasks}},
		"kmeans":    {Kind: KMeans, KMeans: workloads.KMeansConfig{Grains: 2047, MaxIters: 2048}},
		"heat":      {Kind: HeatDist, Heat: workloads.HeatDistConfig{Nodes: 4, BlocksPerNode: 1023, Iters: 1024}},
		"fork-join": {Kind: DAGGen, DAGGen: dagio.GenConfig{Model: "fork-join", Layers: 4096, Width: 1022}},
		// Degree 1: one edge per task, so this cell is at maxCellEdges too.
		"random": {Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelRandomLayered, Layers: 2048, Width: 2048, Degree: 1}},
		// Exactly maxCellEdges by degree, and by width where it is the smaller.
		"random by degree": {Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelRandomLayered, Layers: 1024, Width: 1024, Degree: 4}},
		"random by width":  {Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelRandomLayered, Layers: 4, Width: 1024, Degree: math.MaxInt}},
		"cholesky":         {Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 292}},
		"lu":               {Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelLU, Tiles: 232}},
	} {
		s := okSpec()
		s.Workload = w
		if err := s.Validate(); err != nil {
			t.Errorf("%s: a cell at MaxCellTasks rejected: %v", name, err)
		}
	}
	// Platforms of exactly maxPlatformCores cores, however they are spelled.
	for name, p := range map[string]PlatformSpec{
		"sym":      {Preset: "sym1024"},
		"scaleout": {Preset: "scaleout-32x32"},
		"clusters": {Clusters: []topology.Cluster{
			{Name: "a", NumCores: 1000, Speed: 1, BaseHz: 1e9, MemBandwidth: 1e10},
			{Name: "b", FirstCore: 1000, NumCores: 24, Speed: 1, BaseHz: 1e9, MemBandwidth: 1e10},
		}},
	} {
		s := okSpec()
		s.Platform = p
		if err := s.Validate(); err != nil {
			t.Errorf("%s: a platform of MaxPlatformCores cores rejected: %v", name, err)
		}
	}
	// Waves of exactly minWaveDur stretches, and a ramp of maxRampSteps steps.
	for name, d := range map[string]Disturbance{
		"dvfs":     {Kind: dvfs, Cluster: 0, HiHz: 2e9, LoHz: 1e9, HiDur: minWaveDur, LoDur: minWaveDur},
		"burst":    {Kind: Burst, Cores: []int{0}, Share: 0.5, BusyDur: minWaveDur, IdleDur: minWaveDur},
		"throttle": {Kind: Throttle, Cluster: 0, From: 1, To: 2, Floor: 0.5, RampSteps: maxRampSteps},
	} {
		s := okSpec()
		s.Disturb = []Disturbance{d}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: a disturbance at its floor or cap rejected: %v", name, err)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"empty policy set", func(s *Spec) { s.Policies = nil }, "empty policy set"},
		{"nil policy", func(s *Spec) { s.Policies = []core.Policy{nil} }, "nil policy"},
		{"duplicate policy", func(s *Spec) { s.Policies = []core.Policy{core.DAMC(), core.DAMC()} }, "duplicate policy"},
		{"sampled K over the cap", func(s *Spec) { s.Policies = []core.Policy{core.NewSampled(core.DAMC(), 1025)} },
			`policy "DAM-C~1025": K of 1025 exceeds MaxSampledK (1024)`},
		{"sampled base sampled", func(s *Spec) { s.Policies = []core.Policy{core.NewSampled(core.NewSampled(core.DAMP(), 8), 4)} },
			`policy "DAM-P~8~4": the base of a sampled policy cannot itself be sampled`},
		{"unknown preset", func(s *Spec) { s.Platform.Preset = "cray1" }, "unknown platform preset"},
		{"negative width cap", func(s *Spec) { s.Platform.WidthCap = -2 }, "negative width cap"},
		{"sym one size over the limit", func(s *Spec) { s.Platform.Preset = "sym2048" },
			`platform.preset "sym2048" has 2048 cores, over MaxPlatformCores (1024)`},
		{"sym sized to kill the process", func(s *Spec) { s.Platform.Preset = "sym8589934592" },
			`platform.preset "sym8589934592" has 8589934592 cores, over MaxPlatformCores (1024)`},
		{"scaleout one core over the limit", func(s *Spec) { s.Platform.Preset = "scaleout-1x1025" },
			`platform.preset "scaleout-1x1025" has 1 × 1025 cores, over MaxPlatformCores (1024)`},
		{"scaleout one cluster of 65536", func(s *Spec) { s.Platform.Preset = "scaleout-1x65536" },
			"has 1 × 65536 cores, over MaxPlatformCores (1024)"},
		{"scaleout product overflows", func(s *Spec) { s.Platform.Preset = "scaleout-4294967296x4294967296" },
			"has 4294967296 × 4294967296 cores, over MaxPlatformCores (1024)"},
		{"explicit cluster over the limit", func(s *Spec) {
			s.Platform = PlatformSpec{Clusters: []topology.Cluster{{Name: "big", NumCores: 1 << 33, Speed: 1, BaseHz: 1e9}}}
		}, "platform.clusters[].num_cores add up to 8589934592 cores, over MaxPlatformCores (1024)"},
		{"explicit clusters over the limit by sum", func(s *Spec) {
			s.Platform = PlatformSpec{Clusters: []topology.Cluster{
				{Name: "a", NumCores: 1000, Speed: 1, BaseHz: 1e9},
				{Name: "b", FirstCore: 1000, NumCores: 25, Speed: 1, BaseHz: 1e9},
			}}
		}, "platform.clusters[].num_cores add up to 1025 cores, over MaxPlatformCores (1024)"},
		{"explicit clusters sum overflows", func(s *Spec) {
			s.Platform = PlatformSpec{Clusters: []topology.Cluster{
				{Name: "a", NumCores: 1, Speed: 1, BaseHz: 1e9},
				{Name: "b", FirstCore: 1, NumCores: math.MaxInt, Speed: 1, BaseHz: 1e9},
			}}
		}, "platform.clusters[].num_cores add up to 9223372036854775808 cores, over MaxPlatformCores"},
		{"bad custom cluster width", func(s *Spec) {
			s.Platform = PlatformSpec{Clusters: []topology.Cluster{{
				Name: "bad", NumCores: 4, Widths: []int{1, 3}, Speed: 1, BaseHz: 1e9,
			}}}
		}, "does not divide"},
		{"custom cluster without memory bandwidth", func(s *Spec) {
			s.Platform = PlatformSpec{Clusters: []topology.Cluster{{Name: "c", NumCores: 2, Speed: 1, BaseHz: 1e9}}}
		}, `cluster "c" has non-positive mem_bandwidth 0`},
		{"negative reps", func(s *Spec) { s.Reps = -1 }, "negative repetitions"},
		{"grid one cell over the limit", func(s *Spec) { s.Reps = maxGridCells + 1 },
			"1 policies × 1 points × 1048577 reps exceeds the limit of 1048576 cells"},
		{"grid over the limit by product", func(s *Spec) {
			s.Policies = []core.Policy{core.RWS(), core.DAMC()}
			s.Points = ParallelismPoints(2, 4)
			s.Reps = maxGridCells/4 + 1
		}, "2 policies × 2 points × 262145 reps exceeds the limit"},
		{"grid product overflows", func(s *Spec) {
			s.Policies = core.All()
			s.Reps = math.MaxInt
		}, "exceeds the limit of 1048576 cells"},
		{"job over the limit by product", func(s *Spec) {
			s.Policies = []core.Policy{core.RWS(), core.DAMC()}
			s.Points = ParallelismPoints(2, 4)
			s.Reps = maxGridCells / 4
			s.Workload.Synthetic.Tasks = maxJobTasks/maxGridCells + 1
		}, "a job of 68157440 tasks (2 policies × 262144 reps × the cell tasks of 2 points) exceeds MaxJobTasks (67108864)"},
		{"job of large cells over the limit", func(s *Spec) {
			s.Workload.Synthetic.Tasks = maxCellTasks
			s.Reps = maxJobTasks/maxCellTasks + 1
		}, "exceeds MaxJobTasks (67108864)"},
		{"synthetic cell one task over the limit", func(s *Spec) { s.Workload.Synthetic.Tasks = maxCellTasks + 1 },
			"a cell of 4194305 tasks (workload.synthetic.tasks) exceeds MaxCellTasks (4194304)"},
		{"synthetic layer over the limit at one point", func(s *Spec) {
			s.Points = []Point{{Label: "P2", Parallelism: 2}, {Label: "wide", Parallelism: 1 << 33}}
		}, `point "wide": a cell of 8589934592 tasks (workload.synthetic.parallelism) exceeds MaxCellTasks`},
		{"kmeans cell over the limit by product", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: KMeans, KMeans: workloads.KMeansConfig{Grains: 2047, MaxIters: 2049}}
		}, "a cell of 4196352 tasks (workload.kmeans.grains × workload.kmeans.max_iters) exceeds MaxCellTasks"},
		{"kmeans cell product overflows", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: KMeans, KMeans: workloads.KMeansConfig{Grains: 1 << 62, MaxIters: 1 << 62}}
		}, "(workload.kmeans.grains × workload.kmeans.max_iters) exceeds MaxCellTasks"},
		{"heat cell over the limit by product", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: HeatDist, Heat: workloads.HeatDistConfig{Nodes: 4, BlocksPerNode: 1023, Iters: 1025}}
		}, "a cell of 4198400 tasks (workload.heat.nodes × workload.heat.blocks_per_node × workload.heat.iters) exceeds MaxCellTasks"},
		{"heat cell product overflows", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: HeatDist, Heat: workloads.HeatDistConfig{Nodes: 2, BlocksPerNode: math.MaxInt, Iters: math.MaxInt}}
		}, "workload.heat.iters) exceeds MaxCellTasks"},
		{"cholesky one tile over the limit", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 293}}
		}, "a cell of 4235315 tasks (workload.daggen.tiles) exceeds MaxCellTasks"},
		{"lu tile count overflows", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelLU, Tiles: math.MaxInt}}
		}, "(workload.daggen.tiles) exceeds MaxCellTasks"},
		{"fork-join over the limit at one point", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: "fork-join", Layers: 4096}}
			s.Points = []Point{{Label: "w", Parallelism: 1023}}
		}, "a cell of 4198400 tasks (workload.daggen.layers × workload.daggen.width) exceeds MaxCellTasks"},
		{"random-layered one degree over the edge limit", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelRandomLayered, Layers: 1024, Width: 1024, Degree: 5}}
		}, "a cell of up to 5242880 edges (workload.daggen.layers × workload.daggen.width × min(workload.daggen.degree, workload.daggen.width)) exceeds MaxCellEdges (4194304)"},
		{"random-layered quadratic in two integers", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelRandomLayered, Layers: 3, Width: 2048, Degree: 2048}}
		}, "a cell of up to 12582912 edges"},
		{"random-layered edge limit at one point", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelRandomLayered, Layers: 2, Degree: math.MaxInt}}
			s.Points = []Point{{Label: "P8", Parallelism: 8}, {Label: "wide", Parallelism: 1 << 20}}
		}, `point "wide": a cell of up to 2199023255552 edges`},
		{"alpha out of range", func(s *Spec) { s.Alpha = 1.5 }, "outside [0, 1]"},
		{"empty point label", func(s *Spec) { s.Points = []Point{{}} }, "empty label"},
		{"duplicate point label", func(s *Spec) {
			s.Points = []Point{{Label: "x"}, {Label: "x"}}
		}, "duplicate point label"},
		{"negative parallelism", func(s *Spec) {
			s.Points = []Point{{Label: "x", Parallelism: -1}}
		}, "negative parallelism"},
		{"negative tile", func(s *Spec) { s.Points = []Point{{Label: "x", Tile: -1}} }, "negative tile"},
		{"point alpha out of range", func(s *Spec) {
			s.Points = []Point{{Label: "x", Alpha: 2}}
		}, "outside [0, 1]"},
		{"unknown workload kind", func(s *Spec) { s.Workload.Kind = WorkloadKind(99) }, "unknown workload kind"},
		{"unknown criticality", func(s *Spec) { s.Workload.Criticality = "psychic" }, "unknown criticality"},
		{"criticality on kmeans", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: KMeans, Criticality: CritNone}
		}, "synthetic, dagfile and daggen workloads only"},
		{"synthetic point on kmeans", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: KMeans}
			s.Points = []Point{{Label: "x", Parallelism: 2}}
		}, "graph-shape fields"},
		{"negative heat size", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: HeatDist, Heat: workloads.HeatDistConfig{Nodes: 2, BlocksPerNode: -3}}
		}, "workload.heat.blocks_per_node -3"},
		{"negative kmeans size", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: KMeans, KMeans: workloads.KMeansConfig{N: -5, Grains: -2}}
		}, "workload.kmeans.n -5"},
		{"negative synthetic size", func(s *Spec) {
			s.Workload.Synthetic.Parallelism = -4
		}, "workload.synthetic.parallelism -4"},

		{"disturb unknown kind", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: "quake"}}
		}, "unknown disturbance kind"},
		{"disturb core out of range", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: CoRunCPU, Cores: []int{17}, Share: 0.5}}
		}, "core 17 outside"},
		{"disturb cluster out of range", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: dvfs, Cluster: 9, HiHz: 2e9, LoHz: 1e9, HiDur: 5, LoDur: 5}}
		}, "cluster 9 outside"},
		{"disturb node out of range", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: CoRunCPU, Node: 1, Cores: []int{0}, Share: 0.5}}
		}, "node 1 outside"},
		{"disturb bad share", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: CoRunCPU, Cores: []int{0}, Share: 1.5}}
		}, "share 1.5 outside"},
		{"disturb zero share", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: Burst, Cores: []int{0}, BusyDur: 1, IdleDur: 1}}
		}, "share 0 outside"},
		{"disturb bad bw factor", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: CoRunMemory, Cores: []int{0}, Share: 0.5, BWFactor: 2}}
		}, "bandwidth factor"},
		{"disturb inverted window", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: CoRunCPU, Cores: []int{0}, Share: 0.5, From: 5, To: 2}}
		}, "bad window"},
		{"stall needs window", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: stall, Cores: []int{0}}}
		}, "explicit window"},
		{"throttle needs window", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: Throttle, Cluster: 0, Floor: 0.5}}
		}, "explicit window"},
		{"throttle bad floor", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: Throttle, Cluster: 0, From: 1, To: 2, Floor: 1.5}}
		}, "floor"},
		{"dvfs bad wave", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: dvfs, Cluster: 0, HiHz: 2e9}}
		}, "positive HiHz"},
		{"burst bad durations", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: Burst, Cores: []int{0}, Share: 0.5}}
		}, "positive BusyDur"},
		{"dvfs 10 ns wave", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: dvfs, Cluster: 0, HiHz: 2e9, LoHz: 1e9, HiDur: 1e-8, LoDur: 5}}
		}, "stretches of at least 1e-06 s: hi_dur 1e-08, lo_dur 5"},
		{"dvfs NaN duration", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: dvfs, Cluster: 0, HiHz: 2e9, LoHz: 1e9, HiDur: 5, LoDur: math.NaN()}}
		}, "stretches of at least 1e-06 s: hi_dur 5, lo_dur NaN"},
		{"burst 10 ns wave", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: Burst, Cores: []int{0}, Share: 0.5, BusyDur: 1, IdleDur: 1e-8}}
		}, "BusyDur and IdleDur of at least 1e-06 s: busy_dur 1, idle_dur 1e-08"},
		{"throttle 2^30 ramp steps", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: Throttle, Cluster: 0, From: 1, To: 2, Floor: 0.5, RampSteps: 1 << 30}}
		}, "ramp_steps 1073741824 outside [0, 1024]"},
		{"burst rejects window", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: Burst, Cores: []int{0}, Share: 0.5, BusyDur: 1, IdleDur: 1, From: 1, To: 2}}
		}, "windows are not supported for periodic waves"},
		{"dvfs rejects window", func(s *Spec) {
			d := PaperDVFS(0)
			d.From, d.To = 1, 2
			s.Disturb = []Disturbance{d}
		}, "windows are not supported for periodic waves"},
		{"overlapping core windows", func(s *Spec) {
			s.Disturb = []Disturbance{
				{Kind: CoRunCPU, Cores: []int{0}, Share: 0.5, From: 0, To: 10},
				{Kind: stall, Cores: []int{0}, From: 5, To: 6},
			}
		}, "overlapping core availability"},
		{"whole-run plus window overlap", func(s *Spec) {
			s.Disturb = []Disturbance{
				{Kind: CoRunCPU, Cores: []int{0}, Share: 0.5},
				{Kind: Burst, Cores: []int{0}, Share: 0.5, BusyDur: 1, IdleDur: 1},
			}
		}, "overlapping core availability"},
		{"overlapping cluster clocks", func(s *Spec) {
			s.Disturb = []Disturbance{
				{Kind: dvfs, Cluster: 0, HiHz: 2e9, LoHz: 1e9, HiDur: 5, LoDur: 5},
				{Kind: Throttle, Cluster: 0, From: 2, To: 4, Floor: 0.5},
			}
		}, "overlapping cluster clock"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := okSpec()
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got: %v", tc.want, err)
			}
			// Run must surface the same validation error, not panic.
			if _, err2 := Run(s); err2 == nil {
				t.Fatalf("Run accepted a spec Validate rejected")
			}
		})
	}
}

// Disturbances on distinct resources or disjoint windows must coexist.
func TestValidateDisjointWindowsOK(t *testing.T) {
	s := okSpec()
	s.Disturb = []Disturbance{
		{Kind: CoRunCPU, Cores: []int{0}, Share: 0.5, From: 0, To: 5},
		{Kind: CoRunCPU, Cores: []int{0}, Share: 0.5, From: 5, To: 10},
		{Kind: Burst, Cores: []int{2}, Share: 0.5, BusyDur: 1, IdleDur: 1},
		{Kind: dvfs, Cluster: 1, HiHz: 2e9, LoHz: 1e9, HiDur: 5, LoDur: 5},
		{Kind: Throttle, Cluster: 0, From: 2, To: 4, Floor: 0.5},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("disjoint disturbances rejected: %v", err)
	}
}

// TestOverlapErrorIsDeterministic: of several clashing resources the same one
// is reported every time — core availability before cluster clocks, lower
// cores first — whatever order the disturbances were declared in.
func TestOverlapErrorIsDeterministic(t *testing.T) {
	s := okSpec()
	s.Disturb = []Disturbance{
		{Kind: Throttle, Cluster: 0, From: 1, To: 3, Floor: 0.5},
		{Kind: Throttle, Cluster: 0, From: 2, To: 4, Floor: 0.5},
		{Kind: stall, Cluster: 1, From: 1, To: 3},
		{Kind: stall, Cluster: 1, From: 2, To: 4},
	}
	const want = `scenario "ok": overlapping core availability disturbances on node 0 resource 2 (stall [1, 3) and stall [2, 4))`
	for i := 0; i < 100; i++ {
		if err := s.Validate(); err == nil || err.Error() != want {
			t.Fatalf("validation %d: error %v, want %q", i, err, want)
		}
	}
}

func TestPlatformPresets(t *testing.T) {
	cases := []struct {
		preset string
		cores  int
	}{
		{"tx2", 6},
		{"haswell16", 16},
		{"haswell-node", 20},
		{"sym8", 8},
		{"scaleout-4x4", 16},
		{"scaleout-8x8", 64},
	}
	for _, tc := range cases {
		topo, err := PlatformSpec{Preset: tc.preset}.build()
		if err != nil {
			t.Errorf("%s: %v", tc.preset, err)
			continue
		}
		if topo.NumCores() != tc.cores {
			t.Errorf("%s: %d cores, want %d", tc.preset, topo.NumCores(), tc.cores)
		}
	}
	if _, err := (PlatformSpec{Preset: "sym7"}).build(); err == nil {
		t.Errorf("sym7 should be rejected (not a power of two)")
	}
	// Typos must not silently map onto a different platform.
	for _, bad := range []string{"scaleout-4x4junk", "sym8x", "scaleout-4x", "tx2x"} {
		if _, err := (PlatformSpec{Preset: bad}).build(); err == nil {
			t.Errorf("preset %q should be rejected", bad)
		}
	}
}

func TestWidthCap(t *testing.T) {
	topo, err := PlatformSpec{Preset: "tx2", WidthCap: 1}.build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(topo.Places()), topo.NumCores(); got != want {
		t.Fatalf("width-1 TX2 has %d places, want %d", got, want)
	}
}
