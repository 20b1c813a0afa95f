package scenario

import (
	"bytes"
	"reflect"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

// fullSpec returns a spec exercising every semantic field, written in its
// fully defaulted form so round-trips compare with DeepEqual directly.
func fullSpec() Spec {
	return Spec{
		Name:     "canonical-full",
		Platform: PlatformSpec{Preset: "tx2", WidthCap: 2},
		Workload: WorkloadSpec{
			Kind: Synthetic,
			Synthetic: workloads.SyntheticConfig{
				Kernel: workloads.Stencil, Tile: 512, Sweeps: 2,
				Tasks: 900, Parallelism: 4,
			},
			Criticality: CritInferred,
		},
		Disturb: []Disturbance{
			{Kind: CoRunCPU, Cores: []int{2, 3}, Share: 0.5, From: 1, To: 2},
			{Kind: Burst, Cluster: 1, Share: 0.4, BusyDur: 1.5, IdleDur: 3, Phase0: 0.25, PhaseStep: 1},
			{Kind: Throttle, Cluster: 0, From: 2, To: 4, Floor: 0.3, RampSteps: 6},
			{Kind: dvfs, Cluster: 1, HiHz: 2.035e9, LoHz: 3.45e8, HiDur: 5, LoDur: 5},
		},
		Policies: []core.Policy{core.RWS(), core.DAMC(), core.NewSampled(core.DAMP(), 8)},
		Points: []Point{
			{Label: "P2", Parallelism: 2},
			{Label: "P4-hot", Parallelism: 4, Tile: 256, Alpha: 0.5},
		},
		Seed:      7,
		Reps:      2,
		Alpha:     0.2,
		Latency:   2e-6,
		Bandwidth: 5e9,
	}
}

// TestCanonicalRoundTrip checks Spec → canonical JSON → Spec is lossless
// for every result-determining field, including reconstructed policies
// (sampled wrappers included) and custom cluster platforms.
func TestCanonicalRoundTrip(t *testing.T) {
	specs := map[string]Spec{"full": fullSpec()}

	tx2 := topology.TX2()
	clusters := make([]topology.Cluster, tx2.NumClusters())
	for i := range clusters {
		clusters[i] = tx2.Cluster(i)
	}
	custom := fullSpec()
	custom.Platform = PlatformSpec{Clusters: clusters}
	custom.Disturb = nil
	specs["custom-clusters"] = custom

	km := Spec{
		Name:     "kmeans-rt",
		Platform: PlatformSpec{Preset: "haswell16"},
		Workload: WorkloadSpec{Kind: KMeans, KMeans: workloads.KMeansConfig{}.Defaults()},
		Policies: []core.Policy{core.DAMP()},
		Points:   []Point{{Label: "default"}},
		Seed:     42, Reps: 1, Latency: 2e-6, Bandwidth: 5e9,
	}
	specs["kmeans"] = km

	heat := Spec{
		Name:     "heat-rt",
		Platform: PlatformSpec{Preset: "haswell-node"},
		Workload: WorkloadSpec{Kind: HeatDist, Heat: workloads.HeatDistConfig{}.Defaults()},
		Policies: []core.Policy{core.DAMC()},
		Points:   []Point{{Label: "default"}},
		Seed:     42, Reps: 1, Latency: 1e-6, Bandwidth: 1e9,
	}
	specs["heatdist"] = heat

	for name, s := range specs {
		data, err := s.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: CanonicalJSON: %v", name, err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: ParseSpec: %v", name, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Errorf("%s: round trip lost information\n got: %#v\nwant: %#v", name, back, s)
		}
		// Re-encoding the parsed spec must be byte-identical (fixed point).
		again, err := back.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%s: canonical encoding is not a fixed point\n first: %s\nsecond: %s", name, data, again)
		}
	}
}

// TestHashInvariantUnderJSONOrdering feeds the same spec as two JSON
// documents with different key orderings (top-level and nested) and checks
// ParseSpec + Hash agree.
func TestHashInvariantUnderJSONOrdering(t *testing.T) {
	a := []byte(`{
		"name": "order-test",
		"platform": {"preset": "tx2"},
		"workload": {"kind": "synthetic",
			"synthetic": {"kernel": "MatMul", "tile": 64, "sweeps": 1, "tasks": 800, "parallelism": 4}},
		"policies": ["RWS", "DAM-C"],
		"points": [{"label": "P2", "parallelism": 2}],
		"seed": 42, "reps": 1, "latency": 2e-6, "bandwidth": 5e9}`)
	b := []byte(`{
		"bandwidth": 5e9, "latency": 2e-6, "reps": 1, "seed": 42,
		"points": [{"parallelism": 2, "label": "P2"}],
		"policies": ["RWS", "DAM-C"],
		"workload": {
			"synthetic": {"parallelism": 4, "tasks": 800, "sweeps": 1, "tile": 64, "kernel": "MatMul"},
			"kind": "synthetic"},
		"platform": {"preset": "tx2"},
		"name": "order-test"}`)
	sa, err := ParseSpec(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ParseSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := sa.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := sb.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("key ordering changed the hash: %s vs %s", ha, hb)
	}
	if len(ha) != 64 {
		t.Errorf("hash is not a sha256 hex string: %q", ha)
	}
}

// TestHashNormalization checks that unset defaults, execution-only fields
// and equivalent spellings do not split the cache key, while semantic
// changes do.
func TestHashNormalization(t *testing.T) {
	base := fullSpec()
	baseHash, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	same := []struct {
		name string
		mut  func(*Spec)
	}{
		{"probe", func(s *Spec) { s.Probe = true }},
		{"progress hook", func(s *Spec) { s.Progress = func(int, int) {} }},
		{"reps default spelled out", func(s *Spec) {}},
		{"synthetic defaults spelled out", func(s *Spec) {
			s.Workload.Synthetic = s.Workload.Synthetic.Defaults()
		}},
	}
	// Throttle with unset RampSteps keys like the explicit default (8).
	eight := fullSpec()
	eight.Disturb = append([]Disturbance(nil), base.Disturb...)
	eight.Disturb[2].RampSteps = 8
	eightHash, err := eight.Hash()
	if err != nil {
		t.Fatal(err)
	}
	zero := fullSpec()
	zero.Disturb = append([]Disturbance(nil), base.Disturb...)
	zero.Disturb[2].RampSteps = 0
	zeroHash, err := zero.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if eightHash != zeroHash {
		t.Errorf("throttle ramp default: unset RampSteps keys differently from explicit 8")
	}
	if eightHash == baseHash {
		t.Errorf("throttle ramp: steps 8 and 6 should key differently")
	}
	// A terse twin: every defaultable field unset.
	terse := base
	terse.Disturb = append([]Disturbance(nil), base.Disturb...)
	terse.Latency, terse.Bandwidth = 0, 0
	same = append(same, struct {
		name string
		mut  func(*Spec)
	}{"interconnect defaults unset", func(s *Spec) { *s = terse }})

	for _, tc := range same {
		s := base
		s.Disturb = append([]Disturbance(nil), base.Disturb...)
		tc.mut(&s)
		h, err := s.Hash()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if h != baseHash {
			t.Errorf("%s: execution-equivalent spec changed the hash", tc.name)
		}
	}

	diff := []struct {
		name string
		mut  func(*Spec)
	}{
		{"seed", func(s *Spec) { s.Seed++ }},
		{"policy set", func(s *Spec) { s.Policies = []core.Policy{core.RWS()} }},
		{"platform", func(s *Spec) { s.Platform.Preset = "sym8"; s.Platform.WidthCap = 0 }},
		{"disturbance share", func(s *Spec) { s.Disturb[0].Share = 0.7 }},
		{"point alpha", func(s *Spec) { s.Points[1].Alpha = 0.9 }},
	}
	for _, tc := range diff {
		s := base
		s.Disturb = append([]Disturbance(nil), base.Disturb...)
		s.Points = append([]Point(nil), base.Points...)
		tc.mut(&s)
		h, err := s.Hash()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if h == baseHash {
			t.Errorf("%s: semantic change did not change the hash", tc.name)
		}
	}
}

// TestParseSpecRejects checks strictness: unknown fields, enum names and
// policy names are errors, not silent drops.
func TestParseSpecRejects(t *testing.T) {
	for name, doc := range map[string]string{
		"missing kind":    `{"workload": {}, "policies": ["RWS"]}`,
		"unknown field":   `{"workload": {"kind": "synthetic"}, "policies": ["RWS"], "bogus": 1}`,
		"unknown kind":    `{"workload": {"kind": "quantum"}, "policies": ["RWS"]}`,
		"unknown kernel":  `{"workload": {"kind": "synthetic", "synthetic": {"kernel": "FFT"}}, "policies": ["RWS"]}`,
		"unknown policy":  `{"workload": {"kind": "synthetic"}, "policies": ["SJF"]}`,
		"unknown disturb": `{"workload": {"kind": "synthetic"}, "policies": ["RWS"], "disturb": [{"kind": "meteor"}]}`,
	} {
		if _, err := ParseSpec([]byte(doc)); err == nil {
			t.Errorf("%s: ParseSpec accepted %s", name, doc)
		}
	}
}

// TestProgressHook checks Run reports (0, total) up front and then every
// completed cell exactly once, ending at (total, total).
func TestProgressHook(t *testing.T) {
	var mu chanCounter
	s := Spec{
		Name:     "progress",
		Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{Kernel: workloads.MatMul, Tasks: 120, Parallelism: 4}},
		Policies: []core.Policy{core.RWS(), core.DAMC()},
		Points:   ParallelismPoints(2, 4),
		Seed:     1,
		Reps:     2,
		Progress: mu.hook(),
	}
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	total := 2 * 2 * 2 // policies × points × reps
	mu.check(t, total)
}

// chanCounter collects progress callbacks safely.
type chanCounter struct {
	muTotal []int
	muDone  []int
	lock    chan struct{}
}

func (c *chanCounter) hook() func(done, total int) {
	c.lock = make(chan struct{}, 1)
	c.lock <- struct{}{}
	return func(done, total int) {
		<-c.lock
		c.muDone = append(c.muDone, done)
		c.muTotal = append(c.muTotal, total)
		c.lock <- struct{}{}
	}
}

func (c *chanCounter) check(t *testing.T, total int) {
	t.Helper()
	if len(c.muDone) != total+1 {
		t.Fatalf("progress called %d times, want %d", len(c.muDone), total+1)
	}
	if c.muDone[0] != 0 {
		t.Errorf("first progress call reported done=%d, want 0", c.muDone[0])
	}
	seen := make([]bool, total+1)
	for i, d := range c.muDone {
		if c.muTotal[i] != total {
			t.Errorf("call %d reported total=%d, want %d", i, c.muTotal[i], total)
		}
		if d < 0 || d > total || seen[d] {
			t.Errorf("done value %d repeated or out of range", d)
			continue
		}
		seen[d] = true
	}
	if !seen[total] {
		t.Errorf("no progress call reported done=total=%d", total)
	}
}

// FuzzParseSpec holds the spec layer to what a daemon needs of it: no body a
// client can POST makes ParseSpec panic, a spec that parses re-parses from
// its own canonical encoding to the same encoding, and a spec that also
// validates plans.
// Plan only — no cell runs. The corpus is every registered family plus four
// bodies that used to pass Validate and die in makeslice — three negative
// sizes in the builders, one 2^40-repetition grid in NewPlan — one that died
// out of memory in its first cell's builder (2^33 tasks), three that died the
// same way inside Validate building the platform, one 6 144-task graph of
// 4.2 million edges, one custom cluster without memory bandwidth, whose
// every cell used to panic, a 10 ns DVFS wave, whose first cell took seconds,
// and a 2^30-step throttle ramp, whose first cell would have run out of memory.
func FuzzParseSpec(f *testing.F) {
	for _, name := range Names() {
		fam, _ := Lookup(name)
		b, err := fam.Spec(0.05).CanonicalJSON()
		if err != nil {
			f.Fatalf("family %s: %v", name, err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"workload":{"kind":"heatdist","heat":{"nodes":2,"blocks_per_node":-3}},"policies":["RWS"]}`))
	f.Add([]byte(`{"workload":{"kind":"kmeans","kmeans":{"n":-5,"grains":-2}},"policies":["RWS"]}`))
	f.Add([]byte(`{"workload":{"kind":"synthetic","synthetic":{"kernel":"MatMul","tasks":50,"parallelism":-4}},"policies":["RWS"]}`))
	f.Add([]byte(`{"name":"x","platform":{"preset":"tx2"},"workload":{"kind":"synthetic","synthetic":{"kernel":"MatMul","tasks":50}},"policies":["RWS"],"reps":1099511627776,"seed":1}`))
	f.Add([]byte(`{"name":"x","platform":{"preset":"tx2"},"workload":{"kind":"synthetic","synthetic":{"kernel":"MatMul","tasks":8589934592}},"policies":["RWS"],"seed":1}`))
	f.Add([]byte(`{"platform":{"preset":"sym8589934592"},"workload":{"kind":"synthetic"},"policies":["RWS"]}`))
	f.Add([]byte(`{"platform":{"preset":"scaleout-1x65536"},"workload":{"kind":"synthetic"},"policies":["RWS"]}`))
	f.Add([]byte(`{"platform":{"clusters":[{"name":"c","first_core":0,"num_cores":8589934592,"widths":[1],"speed":1,"base_hz":1e9}]},"workload":{"kind":"synthetic"},"policies":["RWS"]}`))
	f.Add([]byte(`{"workload":{"kind":"daggen","daggen":{"model":"random-layered","layers":3,"width":2048,"degree":2048}},"policies":["RWS"]}`))
	f.Add([]byte(`{"name":"x","platform":{"preset":"tx2"},"workload":{"kind":"synthetic","synthetic":{"kernel":"MatMul","tasks":4194304}},"policies":["RWS"],"reps":17,"seed":1}`))
	f.Add([]byte(`{"platform":{"clusters":[{"name":"c","first_core":0,"num_cores":2,"widths":[1,2],"speed":1,"base_hz":1e9}]},"workload":{"kind":"synthetic","synthetic":{"kernel":"Copy","tasks":20}},"policies":["RWS"]}`))
	f.Add([]byte(`{"platform":{"preset":"tx2"},"workload":{"kind":"synthetic","synthetic":{"kernel":"MatMul","tasks":600}},"disturb":[{"kind":"dvfs","hi_hz":2035e6,"lo_hz":345e6,"hi_dur":1e-8,"lo_dur":1e-8}],"policies":["DAM-C"]}`))
	f.Add([]byte(`{"platform":{"preset":"tx2"},"workload":{"kind":"synthetic","synthetic":{"kernel":"MatMul","tasks":600}},"disturb":[{"kind":"throttle","from":1,"to":2,"floor":0.5,"ramp_steps":1073741824}],"policies":["DAM-C"]}`))
	// Sampled policy names: core.ByName parses the text after the last '~';
	// and ablation-wrapper names it refuses.
	for _, name := range []string{"DAM-C~0", "DAM-C~", "~8", "DAM-P~8~4", "DAM-C~08", "DAM-C~1025",
		"dHEFT+steal", "DAM-C~8+steal", "+steal", "DAM-C+steal+steal"} {
		f.Add([]byte(`{"workload":{"kind":"synthetic","synthetic":{"kernel":"MatMul","tasks":50}},"policies":["` + name + `"]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		// The service hashes a submission before it validates it (a known
		// spec needs no validation), so the key contract holds for every
		// spec that parses, valid or not: its canonical encoding re-parses
		// to a spec that encodes to the same bytes.
		if k, err := s.Key(); err == nil {
			back, err := ParseSpec(k.JSON)
			if err != nil {
				t.Fatalf("canonical encoding does not re-parse: %v\n%s", err, k.JSON)
			}
			again, err := back.Key()
			if err != nil || !bytes.Equal(again.JSON, k.JSON) {
				t.Fatalf("canonical encoding is not a fixed point (%v)\n first: %s\nsecond: %s", err, k.JSON, again.JSON)
			}
		}
		if s.Validate() != nil {
			return
		}
		p, err := NewPlan(s)
		if err != nil {
			t.Fatalf("a spec that validates did not plan: %v", err)
		}
		again, err := ParseSpec(p.Canonical)
		if err != nil {
			t.Fatalf("canonical encoding does not re-parse: %v\n%s", err, p.Canonical)
		}
		if h, err := again.Hash(); err != nil || h != p.Hash {
			t.Fatalf("re-parsed spec hashes to %s (%v), planned as %s\n%s", h, err, p.Hash, p.Canonical)
		}
	})
}
