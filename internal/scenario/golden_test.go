package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dagio"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

// TestSpecHashGoldenVectors pins Spec.Hash to literal sha256 strings for
// representative specs. These hashes are the service's cache keys and job
// IDs: every deployed asymd node and every persisted result is keyed by
// them. A failure here means a refactor changed the canonical encoding —
// which silently invalidates (or worse, aliases) every existing cache
// entry. Do not update the literals without meaning to break the key
// space.
func TestSpecHashGoldenVectors(t *testing.T) {
	vectors := []struct {
		name string
		spec Spec
		want string
	}{
		{
			// Everything defaulted: locks withDefaults + the workload's
			// own Defaults() into the encoding.
			name: "defaults",
			spec: Spec{
				Workload: WorkloadSpec{Kind: Synthetic},
				Policies: []core.Policy{core.DAMC()},
				Seed:     42,
			},
			want: "38554b62b8f1d37bcde6a8d3977b11438dc0ce86e0e80af14b29bc38cc0bc465",
		},
		{
			// Sampled policy wrapper ("DAM-C~8"), multi-point sweep,
			// repetitions, a disturbance, scale-out platform.
			name: "sampled",
			spec: Spec{
				Name:     "golden-sampled",
				Platform: PlatformSpec{Preset: "scaleout-4x4"},
				Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{
					Kernel: workloads.Stencil, Tasks: 1200,
				}},
				Disturb:  []Disturbance{{Kind: Burst, Cluster: 1, Share: 0.5, BusyDur: 0.2, IdleDur: 0.4}},
				Policies: []core.Policy{core.RWS(), core.NewSampled(core.DAMC(), 8)},
				Points:   ParallelismPoints(8, 16),
				Reps:     2,
				Seed:     7,
			},
			want: "0a678b63098999bfe4b387ce9c41ef4d58a11cc0513a809e6623394c1e57e4c0",
		},
		{
			// KMeans: only the active workload's config may be encoded.
			name: "kmeans",
			spec: Spec{
				Name:     "golden-kmeans",
				Workload: WorkloadSpec{Kind: KMeans, KMeans: workloads.KMeansConfig{K: 8, MaxIters: 4}},
				Policies: []core.Policy{core.DAMP()},
				Seed:     42,
			},
			want: "d47f6cac58234cde6501d2b6f8c77bacbdfa4394d775f7b18dc1dda75b13cf04",
		},
		{
			// Distributed heat with a windowed throttle on node 1 (the
			// implicit ramp-steps default is part of the key).
			name: "heat",
			spec: Spec{
				Name:     "golden-heat",
				Platform: PlatformSpec{Preset: "haswell-node"},
				Workload: WorkloadSpec{Kind: HeatDist, Heat: workloads.HeatDistConfig{Nodes: 2, Iters: 6}},
				Disturb:  []Disturbance{{Kind: Throttle, Node: 1, Cluster: 0, From: 1, To: 3, Floor: 0.5}},
				Policies: []core.Policy{core.DAMC()},
				Seed:     11,
			},
			want: "bbd79ec42b787606b309365d7c6338870eae143cd62031c7593b0d4aa8ea8985",
		},
		{
			// Every disturbance field: the kinds fullSpec lacks (a memory
			// co-runner's bandwidth factor, a stall) and a throttle whose
			// unset ramp steps encode as the default.
			name: "full-disturbances",
			spec: func() Spec {
				s := fullSpec()
				s.Disturb[2].RampSteps = 0
				s.Disturb = append(s.Disturb,
					Disturbance{Kind: CoRunMemory, Cores: []int{4}, Share: 0.6, BWFactor: 0.7},
					Disturbance{Kind: stall, Cores: []int{5}, From: 1, To: 2})
				return s
			}(),
			want: "3ea80a740eaf859a059ae29ef27051b372076cf97143d2c6d909f11ffceb31a1",
		},
		{
			// A custom cluster list with a width cap: every cluster field is
			// encoded, and the stray preset beside it is dropped.
			name: "custom-clusters",
			spec: func() Spec {
				s := fullSpec()
				tx2 := topology.TX2()
				s.Platform = PlatformSpec{Preset: "haswell16", WidthCap: 2}
				for i := range tx2.NumClusters() {
					s.Platform.Clusters = append(s.Platform.Clusters, tx2.Cluster(i))
				}
				return s
			}(),
			want: "7d976b62907a98ed8166f577a27d5e9a7e0d6da077ebcecffb230f32be713afc",
		},
		{
			// A generated graph with a criticality variant; the inactive
			// synthetic config is not encoded.
			name: "daggen",
			spec: Spec{
				Workload: WorkloadSpec{
					Kind:        DAGGen,
					DAGGen:      dagio.GenConfig{Model: dagio.ModelRandomLayered, Layers: 4, Width: 6, Degree: 2, Seed: 3},
					Synthetic:   workloads.SyntheticConfig{Kernel: workloads.Copy, Tasks: 50},
					Criticality: CritNone,
				},
				Policies: []core.Policy{core.DAMC()},
				Seed:     9,
			},
			want: "01abbcd05bfffafb56fd88e8cce7a333947d96fce4c65ad4bd49ca6986b6a47f",
		},
		{
			// A named imported graph: the name is not encoded, nor is the
			// inactive kmeans config.
			name: "dagfile-named",
			spec: func() Spec {
				g := dagio.Demo()
				g.Name = "golden-named"
				return Spec{
					Workload: WorkloadSpec{Kind: DAGFile, DAG: g, KMeans: workloads.KMeansConfig{K: 3}},
					Policies: []core.Policy{core.DAMP()},
					Seed:     5,
				}
			}(),
			want: "8cfa8c568b1a463b1dcc2effa4e38a5825c2e8ec3bc0c2a0d3ae166316dde0d9",
		},
		{
			// KMeans with a sampled policy: the criticality, which only
			// graph workloads take, is not encoded.
			name: "kmeans-sampled",
			spec: Spec{
				Workload: WorkloadSpec{Kind: KMeans, KMeans: workloads.KMeansConfig{K: 4, MaxIters: 3}, Criticality: CritInferred},
				Policies: []core.Policy{core.NewSampled(core.DAMC(), 4)},
				Seed:     3,
			},
			want: "095f6f6d7f68f7eb40fb5f93366165f95be5d4a7710dd516b15d67cc3bf5a9d1",
		},
	}
	for _, v := range vectors {
		v := v
		t.Run(v.name, func(t *testing.T) {
			got, err := v.spec.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if got != v.want {
				cj, _ := v.spec.CanonicalJSON()
				t.Errorf("Spec.Hash = %s, want %s\ncanonical encoding changed to: %s", got, v.want, cj)
			}
		})
	}
}

// TestCellHashGoldenVectors pins the cell keys to literal sha256 strings, as
// TestSpecHashGoldenVectors pins the job keys. Cell keys are the cross-node
// cache contract: a coordinator and its peers must derive the same key for
// the same cell (a mismatch is a 409 on /v1/shards), and the cell cache
// serves any spec whose cells overlap a banked one. Each row covers one
// field of the key: the family sweep's first and last cell, a sampled
// policy's name, a point's alpha (encoded as its float bits), a repetition's
// seed stride, a dagfile workload's embedded graph and a distributed heat
// workload. The literals were generated before the key derivation was last
// rewritten and must survive any behaviour-preserving change unchanged.
func TestCellHashGoldenVectors(t *testing.T) {
	burst, _ := Lookup("burst-sweep")
	sweep := burst.Spec(0.05)
	sampled := Spec{
		Platform: PlatformSpec{Preset: "scaleout-4x4"},
		Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{Kernel: workloads.Stencil, Tasks: 1200}},
		Disturb:  []Disturbance{{Kind: Burst, Cluster: 1, Share: 0.5, BusyDur: 0.2, IdleDur: 0.4}},
		Policies: []core.Policy{core.RWS(), core.NewSampled(core.DAMC(), 8)},
		Points:   ParallelismPoints(8, 16),
		Seed:     7,
	}
	alpha := planSpec(core.DAMC())
	alpha.Points = []Point{{Label: "a", Parallelism: 2, Alpha: 0.37}, {Label: "b", Parallelism: 4}}
	dagfile := Spec{
		Workload: WorkloadSpec{Kind: DAGFile, DAG: dagio.Demo()},
		Policies: []core.Policy{core.DAMP()},
		Seed:     5,
	}
	heat := Spec{
		Platform: PlatformSpec{Preset: "haswell-node"},
		Workload: WorkloadSpec{Kind: HeatDist, Heat: workloads.HeatDistConfig{Nodes: 2, Iters: 6}},
		Disturb:  []Disturbance{{Kind: Throttle, Node: 1, Cluster: 0, From: 1, To: 3, Floor: 0.5}},
		Policies: []core.Policy{core.DAMC()},
		Seed:     11,
	}
	vectors := []struct {
		name               string
		spec               Spec
		policy, point, rep int
		want               string
	}{
		{"burst-sweep first", sweep, 0, 0, 0, "393961ae6952e0032398b2d1cc8c125b7ca70919d9f0e9cb1cd34860e0161db9"},
		{"burst-sweep last", sweep, len(sweep.Policies) - 1, len(sweep.Points) - 1, 0, "85699c2b928b79531dcaae12f8784c13f70f1505b54912875331b0746c548dbd"},
		{"sampled policy", sampled, 1, 1, 0, "9494d3809c2d2fc12c2221916fa3f1d532814c4d633828c64cd983e0e3829c4f"},
		{"point alpha", alpha, 0, 0, 1, "f41a3aa16bf9341d1daa72958d10f87987a49751dfd2e6dcbbfb6869fdceb8c6"},
		{"rep seed stride", alpha, 0, 1, 1, "e214ba33693619bf6b45f18291560d89b83b9219ccfcd8f09736062f8d33ff68"},
		{"dagfile", dagfile, 0, 0, 0, "6bd874d8b1f906636b0885a08cb93b7476a110df491148043b6d716e541326e2"},
		{"heatdist", heat, 0, 0, 0, "585158b79972d95994def7d5def3cce9589c60595d0de129564206d35ae5788e"},
	}
	for _, v := range vectors {
		p, err := NewPlan(v.spec)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		c, err := p.Cell(v.policy, v.point, v.rep)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if c.Hash != v.want {
			t.Errorf("%s: cell (%d,%d,%d) hashes to %s, want %s", v.name, v.policy, v.point, v.rep, c.Hash, v.want)
		}
	}
}

// TestResultFingerprintGoldenVectors pins sha256(Result.FingerprintText())
// for one small spec per workload kind — all seven Table-1 policies, two
// repetitions, a burst disturbance. Every other determinism suite compares
// two runs of the same commit; this is the only tier-1 test that notices a
// deterministic drift between commits (a refactor that changes a steal
// victim, a PTT rounding, an RNG draw order). The literals were generated
// at the commit before the goroutine runtime was removed and must survive
// any behaviour-preserving change unchanged. A legitimate schedule change
// re-pins them together with a cellHashVersion bump, in its own commit —
// never one without the other, or caches serve results this engine would
// not produce. Beside each, Result.Fingerprint() of the same run is pinned:
// those literals move only with the digest's encoding (result.go), the text
// ones only with the engine.
func TestResultFingerprintGoldenVectors(t *testing.T) {
	burst := Disturbance{Kind: Burst, Cluster: 1, Share: 0.4, BusyDur: 0.1, IdleDur: 0.2, PhaseStep: 0.05}
	specs := map[string]Spec{}
	for name, w := range probeWorkloads() {
		specs[name] = Spec{
			Name:     "golden-fp-" + name,
			Platform: PlatformSpec{Preset: "tx2"},
			Workload: w,
			Disturb:  []Disturbance{burst},
			Policies: core.All(),
			Reps:     2,
			Seed:     42,
		}
	}
	specs["heatdist"] = Spec{
		Name:     "golden-fp-heatdist",
		Platform: PlatformSpec{Preset: "haswell-node"},
		Workload: WorkloadSpec{Kind: HeatDist, Heat: workloads.HeatDistConfig{Nodes: 2, Iters: 6}},
		Disturb:  []Disturbance{{Kind: Burst, Node: 1, Cluster: 0, Share: 0.4, BusyDur: 0.001, IdleDur: 0.002}},
		Policies: core.All(),
		Reps:     2,
		Seed:     11,
	}
	want := map[string]string{
		"synthetic": "b4c174ce0998df2cb7da4c35982a6f6d31785859dc70dd72cb79c7c545c8a244",
		"kmeans":    "7d330699a10b4081123be86e15a7a26dcb9e2e0f5835ffa7b1df5b98ba72c52a",
		"daggen":    "cf6156a5a30ea55c0a695613ca2a73ec993386054de3bc181afef46cbd708371",
		"dagfile":   "27a9e205061cc6a953e18e8fcd3ed7e34dd723193ec0f01fb47c6a22baa0f430",
		"heatdist":  "bbeb408d0a0dc6024a1d929ab58f2774278d486ea78af969602b1b49d5367e35",
	}
	wantDigest := map[string]string{
		"synthetic": "d4776244a31e03a6fc90fabc1d1028df5feb49db6edb34ee5431ffebb939b7d3",
		"kmeans":    "3c03ee1a5da96aa0ab037879608c2c6e0a8f61ae446a5c58ce4ae856eca0d8cf",
		"daggen":    "e7f19333848a9d02bcced02e7127d072d06e162d9b01a702882a5d9259feb08c",
		"dagfile":   "730afb06d6229a231c822632fe3ebd55eedde2247d66ab9a571430c8b3305e79",
		"heatdist":  "edf1605b3c2fd0abf6817d0af0f10291f82b0d6d38f34681e8b0517b6863f052",
	}
	for name, s := range specs {
		name, s := name, s
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(res.FingerprintText()))
			if got := hex.EncodeToString(sum[:]); got != want[name] {
				t.Errorf("sha256(FingerprintText) = %s, want %s", got, want[name])
			}
			if got := res.Fingerprint(); got != wantDigest[name] {
				t.Errorf("Fingerprint = %s, want %s", got, wantDigest[name])
			}
		})
	}
}

// TestRunCellTraceGoldenBytes pins the SHA-256 of the Chrome trace
// RunCellTrace writes for two small cells, one per trace shape: a generated
// Cholesky graph under DVFS on the TX2 (the cells of `dagsim -gen cholesky
// -tiles 8 -interfere dvfs`), and a 2 000-task synthetic graph under bursts
// on a 16-core scale-out platform with sampled search, whose places are
// wide (`dagsim -policy DAM-C~8 -platform scaleout-4x4 -interfere burst
// -parallelism 8 -tasks 2000`). Slice order, counter lanes and every
// rendered float are part of the bytes, so a change to how a trace is
// written that is meant to keep it must leave these literals alone.
func TestRunCellTraceGoldenBytes(t *testing.T) {
	sampled, err := core.ByName("DAM-C~8")
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]Spec{
		"cholesky-dvfs": {
			Name:     "golden-trace-cholesky",
			Platform: PlatformSpec{Preset: "tx2"},
			Workload: WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 8, Seed: 42}},
			Disturb:  []Disturbance{PaperDVFS(0)},
			Policies: []core.Policy{core.DAMC()},
			Seed:     42,
		},
		"scaleout-burst": {
			Name:     "golden-trace-scaleout",
			Platform: PlatformSpec{Preset: "scaleout-4x4"},
			Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{
				Kernel: workloads.MatMul, Tasks: 2000, Parallelism: 8,
			}},
			Disturb:  []Disturbance{{Kind: Burst, Cluster: 0, Share: 0.5, BusyDur: 1, IdleDur: 2, PhaseStep: 0.5}},
			Policies: []core.Policy{sampled},
			Seed:     42,
		},
	}
	want := map[string]string{
		"cholesky-dvfs":  "e609bc12ee0b7b2d5d5fd4b849611664dce02ce929c86088f90c281cafa13fd7",
		"scaleout-burst": "3d97e57b4b054138aa45a118735430e11ccc8ad1f7e7985423619fc56f62044a",
	}
	for name, s := range specs {
		plan, err := NewPlan(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Cells) != 1 {
			t.Fatalf("%s: %d cells, want 1", name, len(plan.Cells))
		}
		h := sha256.New()
		if _, _, err := plan.RunCellTrace(NewCellState(), plan.Cells[0], h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: sha256(trace) = %s, want %s", name, got, want[name])
		}
	}
}
