package scenario

// Canonical spec serialization: a stable JSON encoding of Spec that maps
// every result-identical spec to the same byte sequence, and therefore to
// the same Hash. This is the cache key of the scenario service
// (internal/service): any client-submitted spec, and any registered
// family+scale, hashes to the key its results are memoized under.
//
// Canonicalization normalizes before encoding:
//
//   - withDefaults fills unset engine fields (platform preset, points,
//     reps, interconnect), and the workload config's own Defaults() fills
//     its unset fields, so a spec written tersely and its fully spelled-out
//     twin encode identically;
//   - policies encode as their names (core.ByName reconstructs them,
//     including sampled wrappers like "DAM-C~8");
//   - enum kinds encode as their String() names, not integers;
//   - only the active workload's config is encoded — an inactive config
//     cannot influence the run, so it must not influence the key;
//   - execution-only fields never appear: Probe and Progress (observation
//     hooks) change how a run is watched, never what it computes.
//
// Struct fields marshal in declaration order and parsing goes through
// typed structs (never map[string]any), so the encoding is invariant
// under key reordering of client JSON by construction.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"dynasym/internal/core"
	"dynasym/internal/dagio"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

type specJSON struct {
	Name      string        `json:"name,omitempty"`
	Platform  platformJSON  `json:"platform"`
	Workload  workloadJSON  `json:"workload"`
	Disturb   []disturbJSON `json:"disturb,omitempty"`
	Policies  []string      `json:"policies"`
	Points    []pointJSON   `json:"points"`
	Seed      uint64        `json:"seed"`
	Reps      int           `json:"reps"`
	Alpha     float64       `json:"alpha,omitempty"`
	Latency   float64       `json:"latency"`
	Bandwidth float64       `json:"bandwidth"`
}

type platformJSON struct {
	Preset   string        `json:"preset,omitempty"`
	Clusters []clusterJSON `json:"clusters,omitempty"`
	WidthCap int           `json:"width_cap,omitempty"`
}

type clusterJSON struct {
	Name         string  `json:"name"`
	FirstCore    int     `json:"first_core"`
	NumCores     int     `json:"num_cores"`
	Widths       []int   `json:"widths"`
	Speed        float64 `json:"speed"`
	BaseHz       float64 `json:"base_hz"`
	L1Bytes      int     `json:"l1_bytes"`
	L2Bytes      int     `json:"l2_bytes"`
	MemBandwidth float64 `json:"mem_bandwidth"`
	NodeID       int     `json:"node_id,omitempty"`
}

type workloadJSON struct {
	Kind      string         `json:"kind"`
	Synthetic *syntheticJSON `json:"synthetic,omitempty"`
	KMeans    *kmeansJSON    `json:"kmeans,omitempty"`
	Heat      *heatJSON      `json:"heat,omitempty"`
	// DAG is the normalized graph content of a dagfile workload
	// (dagio's wire schema, name stripped). Encoding the content —
	// never the source path — is what makes DAGFile hashes a pure
	// function of the graph: rename the file, reorder its
	// declarations, or re-submit it from another host, and the spec
	// still lands on the same cache keys. It also makes the canonical
	// spec self-contained, so a remote shard worker can rebuild the
	// exact workload from the wire bytes alone.
	DAG         *dagio.JSONGraph `json:"dag,omitempty"`
	DAGGen      *dagGenJSON      `json:"daggen,omitempty"`
	Criticality string           `json:"criticality,omitempty"`
}

// dagGenJSON, kmeansJSON and heatJSON pin the wire spelling of
// dagio.GenConfig, workloads.KMeansConfig and workloads.HeatDistConfig: same
// fields in the same order, so both directions are struct conversions and a
// field added on one side only stops compiling.
type dagGenJSON struct {
	Model  string `json:"model"`
	Tiles  int    `json:"tiles"`
	Tile   int    `json:"tile"`
	Layers int    `json:"layers"`
	Width  int    `json:"width"`
	Degree int    `json:"degree"`
	Seed   uint64 `json:"seed"`
}

type syntheticJSON struct {
	Kernel      string `json:"kernel"`
	Tile        int    `json:"tile"`
	Sweeps      int    `json:"sweeps"`
	Tasks       int    `json:"tasks"`
	Parallelism int    `json:"parallelism"`
}

type kmeansJSON struct {
	N         int     `json:"n"`
	D         int     `json:"d"`
	K         int     `json:"k"`
	Grains    int     `json:"grains"`
	JumboFrac float64 `json:"jumbo_frac"`
	CostScale float64 `json:"cost_scale"`
	MaxIters  int     `json:"max_iters"`
	Epsilon   float64 `json:"epsilon"`
	Seed      uint64  `json:"seed"`
	BlobStd   float64 `json:"blob_std"`
}

type heatJSON struct {
	Nodes         int `json:"nodes"`
	BlocksPerNode int `json:"blocks_per_node"`
	Iters         int `json:"iters"`
	RowsPerBlock  int `json:"rows_per_block"`
	Cols          int `json:"cols"`
}

type disturbJSON struct {
	Kind      string  `json:"kind"`
	Node      int     `json:"node,omitempty"`
	Cores     []int   `json:"cores,omitempty"`
	Cluster   int     `json:"cluster,omitempty"`
	Share     float64 `json:"share,omitempty"`
	BWFactor  float64 `json:"bw_factor,omitempty"`
	From      float64 `json:"from,omitempty"`
	To        float64 `json:"to,omitempty"`
	HiHz      float64 `json:"hi_hz,omitempty"`
	LoHz      float64 `json:"lo_hz,omitempty"`
	HiDur     float64 `json:"hi_dur,omitempty"`
	LoDur     float64 `json:"lo_dur,omitempty"`
	BusyDur   float64 `json:"busy_dur,omitempty"`
	IdleDur   float64 `json:"idle_dur,omitempty"`
	Phase0    float64 `json:"phase0,omitempty"`
	PhaseStep float64 `json:"phase_step,omitempty"`
	Floor     float64 `json:"floor,omitempty"`
	RampSteps int     `json:"ramp_steps,omitempty"`
}

type pointJSON struct {
	Label       string  `json:"label"`
	Parallelism int     `json:"parallelism,omitempty"`
	Tile        int     `json:"tile,omitempty"`
	Alpha       float64 `json:"alpha,omitempty"`
}

// CanonicalJSON returns the normalized, deterministic JSON encoding of the
// spec. Two specs that produce bit-identical results under Run encode to
// the same bytes (see the package comment above for the normalization
// rules). The encoding round-trips through ParseSpec.
func (s Spec) CanonicalJSON() ([]byte, error) {
	sj, err := s.canonicalStruct()
	if err != nil {
		return nil, err
	}
	return json.Marshal(sj)
}

// cellBase returns the canonical encoding of the cell-invariant spec
// fields: everything a single cell's metrics depend on that is not the
// cell's own coordinates. Name, Policies, Points, Seed and Reps are zeroed
// out — the policy, the point parameters and the derived seed are hashed
// per cell instead — so two specs that differ only in their grid axes (an
// extra sweep point, a reordered policy list, a different name) share the
// base, and therefore share the cell hashes of their common cells. That
// sharing is what makes the service's cell cache reuse work across
// overlapping specs.
func (s Spec) cellBase() ([]byte, error) {
	sj, err := s.canonicalStruct()
	if err != nil {
		return nil, err
	}
	sj.Name = ""
	sj.Policies = nil
	sj.Points = nil
	sj.Seed = 0
	sj.Reps = 0
	return json.Marshal(sj)
}

// canonicalStruct builds the normalized wire struct both CanonicalJSON and
// cellBase marshal.
func (s Spec) canonicalStruct() (specJSON, error) {
	s = s.withDefaults()
	sj := specJSON{
		Name:      s.Name,
		Seed:      s.Seed,
		Reps:      s.Reps,
		Alpha:     s.Alpha,
		Latency:   s.Latency,
		Bandwidth: s.Bandwidth,
	}
	if len(s.Platform.Clusters) > 0 {
		sj.Platform.Clusters = make([]clusterJSON, len(s.Platform.Clusters))
		for i, c := range s.Platform.Clusters {
			sj.Platform.Clusters[i] = clusterJSON(c)
		}
	} else {
		sj.Platform.Preset = s.Platform.Preset
	}
	sj.Platform.WidthCap = s.Platform.WidthCap

	sj.Workload.Kind = s.Workload.Kind.String()
	switch s.Workload.Kind {
	case Synthetic:
		cfg := s.Workload.Synthetic.Defaults()
		sj.Workload.Synthetic = &syntheticJSON{
			Kernel:      cfg.Kernel.String(),
			Tile:        cfg.Tile,
			Sweeps:      cfg.Sweeps,
			Tasks:       cfg.Tasks,
			Parallelism: cfg.Parallelism,
		}
		sj.Workload.Criticality = s.Workload.Criticality
	case KMeans:
		cfg := kmeansJSON(s.Workload.KMeans.Defaults())
		sj.Workload.KMeans = &cfg
	case HeatDist:
		cfg := heatJSON(s.Workload.Heat.Defaults())
		sj.Workload.Heat = &cfg
	case DAGFile:
		if s.Workload.DAG == nil {
			return specJSON{}, fmt.Errorf("scenario: cannot encode dagfile workload without a graph")
		}
		wire := s.Workload.DAG.Wire()
		sj.Workload.DAG = &wire
		sj.Workload.Criticality = s.Workload.Criticality
	case DAGGen:
		cfg := dagGenJSON(s.Workload.DAGGen.Defaults())
		sj.Workload.DAGGen = &cfg
		sj.Workload.Criticality = s.Workload.Criticality
	default:
		return specJSON{}, fmt.Errorf("scenario: cannot encode unknown workload kind %v (known kinds: %s)", s.Workload.Kind, workloadKindList())
	}

	if len(s.Disturb) > 0 {
		sj.Disturb = make([]disturbJSON, len(s.Disturb))
		for i, d := range s.Disturb {
			dj := disturbJSON{
				Kind:    d.Kind.String(),
				Node:    d.Node,
				Cluster: d.Cluster,
				Share:   d.Share, BWFactor: d.BWFactor,
				From: d.From, To: d.To,
				HiHz: d.HiHz, LoHz: d.LoHz, HiDur: d.HiDur, LoDur: d.LoDur,
				BusyDur: d.BusyDur, IdleDur: d.IdleDur,
				Phase0: d.Phase0, PhaseStep: d.PhaseStep,
				Floor: d.Floor, RampSteps: d.RampSteps,
			}
			if len(d.Cores) > 0 {
				dj.Cores = d.Cores
			}
			// apply() substitutes the default ramp when steps are unset, so
			// the two spellings are the same schedule — and the same key.
			if d.Kind == Throttle && dj.RampSteps == 0 {
				dj.RampSteps = 8
			}
			sj.Disturb[i] = dj
		}
	}

	sj.Policies = make([]string, len(s.Policies))
	for i, p := range s.Policies {
		if p == nil {
			return specJSON{}, fmt.Errorf("scenario: cannot encode nil policy")
		}
		sj.Policies[i] = p.Name()
	}

	sj.Points = make([]pointJSON, len(s.Points))
	for i, pt := range s.Points {
		sj.Points[i] = pointJSON(pt)
	}

	return sj, nil
}

// Hash returns the sha256 of the canonical JSON encoding, hex-encoded.
// It is the deterministic cache key of the spec: invariant under field
// reordering of client JSON, under unset-vs-spelled-out defaults, and
// under execution-only settings (Probe, Progress).
func (s Spec) Hash() (string, error) {
	b, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ParseSpec decodes a JSON-encoded spec (canonical or hand-written; key
// order is irrelevant) into a Spec. Unknown fields, unknown enum names and
// unknown policy names are errors. The result is not validated beyond
// that — call Validate or Run.
func ParseSpec(data []byte) (Spec, error) {
	var sj specJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sj); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse spec: %w", err)
	}
	s := Spec{
		Name:      sj.Name,
		Seed:      sj.Seed,
		Reps:      sj.Reps,
		Alpha:     sj.Alpha,
		Latency:   sj.Latency,
		Bandwidth: sj.Bandwidth,
	}
	s.Platform.Preset = sj.Platform.Preset
	s.Platform.WidthCap = sj.Platform.WidthCap
	if len(sj.Platform.Clusters) > 0 {
		s.Platform.Clusters = make([]topology.Cluster, len(sj.Platform.Clusters))
		for i, c := range sj.Platform.Clusters {
			s.Platform.Clusters[i] = topology.Cluster(c)
		}
	}

	kind, err := workloadKindByName(sj.Workload.Kind)
	if err != nil {
		return Spec{}, err
	}
	s.Workload.Kind = kind
	s.Workload.Criticality = sj.Workload.Criticality
	if sj.Workload.Synthetic != nil {
		kernel, err := kernelByName(sj.Workload.Synthetic.Kernel)
		if err != nil {
			return Spec{}, err
		}
		s.Workload.Synthetic = workloads.SyntheticConfig{
			Kernel:      kernel,
			Tile:        sj.Workload.Synthetic.Tile,
			Sweeps:      sj.Workload.Synthetic.Sweeps,
			Tasks:       sj.Workload.Synthetic.Tasks,
			Parallelism: sj.Workload.Synthetic.Parallelism,
		}
	}
	if sj.Workload.KMeans != nil {
		s.Workload.KMeans = workloads.KMeansConfig(*sj.Workload.KMeans)
	}
	if sj.Workload.Heat != nil {
		s.Workload.Heat = workloads.HeatDistConfig(*sj.Workload.Heat)
	}
	if sj.Workload.DAG != nil {
		s.Workload.DAG = dagio.FromWire(*sj.Workload.DAG)
	}
	if sj.Workload.DAGGen != nil {
		s.Workload.DAGGen = dagio.GenConfig(*sj.Workload.DAGGen)
	}

	if len(sj.Disturb) > 0 {
		s.Disturb = make([]Disturbance, len(sj.Disturb))
		for i, dj := range sj.Disturb {
			dk, err := disturbKindByName(i, dj.Kind)
			if err != nil {
				return Spec{}, err
			}
			s.Disturb[i] = Disturbance{
				Kind:    dk,
				Node:    dj.Node,
				Cores:   dj.Cores,
				Cluster: dj.Cluster,
				Share:   dj.Share, BWFactor: dj.BWFactor,
				From: dj.From, To: dj.To,
				HiHz: dj.HiHz, LoHz: dj.LoHz, HiDur: dj.HiDur, LoDur: dj.LoDur,
				BusyDur: dj.BusyDur, IdleDur: dj.IdleDur,
				Phase0: dj.Phase0, PhaseStep: dj.PhaseStep,
				Floor: dj.Floor, RampSteps: dj.RampSteps,
			}
		}
	}

	s.Policies = make([]core.Policy, len(sj.Policies))
	for i, name := range sj.Policies {
		p, err := core.ByName(name)
		if err != nil {
			return Spec{}, err
		}
		s.Policies[i] = p
	}

	if len(sj.Points) > 0 {
		s.Points = make([]Point, len(sj.Points))
		for i, pt := range sj.Points {
			s.Points[i] = Point(pt)
		}
	}
	return s, nil
}

// disturbKinds lists every valid disturbance kind once, like
// workloadKinds (scenario.go) does for workloads.
var disturbKinds = []DisturbKind{CoRunCPU, CoRunMemory, DVFS, Stall, Burst, Throttle}

// kernelKinds lists the synthetic kernel classes.
var kernelKinds = []workloads.KernelKind{workloads.MatMul, workloads.Copy, workloads.Stencil}

// Unknown-name errors name the offending spec field and enumerate the
// accepted values, so a typo in a submitted document reports
// `unknown workload.kind "sinthetic" (known kinds: ...)` instead of
// just echoing the bad string back.

// nameList renders a kind slice as "a, b, c" for known-kinds errors.
func nameList[T fmt.Stringer](ks []T) string {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.String()
	}
	return strings.Join(names, ", ")
}

func workloadKindList() string { return nameList(workloadKinds) }

func workloadKindByName(name string) (WorkloadKind, error) {
	for _, k := range workloadKinds {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown workload.kind %q (known kinds: %s)", name, workloadKindList())
}

func kernelByName(name string) (workloads.KernelKind, error) {
	for _, k := range kernelKinds {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown workload.synthetic.kernel %q (known kernels: %s)", name, nameList(kernelKinds))
}

func disturbKindByName(index int, name string) (DisturbKind, error) {
	for _, k := range disturbKinds {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown disturb[%d].kind %q (known kinds: %s)", index, name, nameList(disturbKinds))
}
