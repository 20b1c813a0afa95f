package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dynasym/internal/core"
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
