package scenario

// Canonical spec serialization: a stable JSON encoding of Spec that maps
// every result-identical spec to the same byte sequence, and therefore to
// the same Hash. This is the cache key of the scenario service
// (internal/service): any client-submitted spec, and any registered
// family+scale, hashes to the key its results are memoized under.
//
// Canonicalization normalizes a copy of the spec (canonical) before
// encoding it:
//
//   - withDefaults fills unset engine fields (platform preset, points,
//     reps, interconnect), and the workload config's own Defaults() fills
//     its unset fields, so a spec written tersely and its fully spelled-out
//     twin encode identically;
//   - policies encode as their names (PolicyList; core.ByName reconstructs
//     them, including sampled wrappers like "DAM-C~8");
//   - enum kinds encode as their names, not integers;
//   - only the active workload's config is encoded — an inactive config
//     cannot influence the run, so it must not influence the key;
//   - execution-only fields never appear: Probe and Progress (observation
//     hooks, tagged json:"-") change how a run is watched, never what it
//     computes.
//
// Every field's wire name is its json tag, beside the field on the type
// that declares it: Spec and the types it holds are the one spec form.
// Struct fields marshal in declaration order and parsing decodes into the
// same typed structs (never map[string]any), so the encoding is invariant
// under key reordering of client JSON by construction.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"

	"dynasym/internal/core"
	"dynasym/internal/workloads"
)

// CanonicalJSON returns the normalized, deterministic JSON encoding of the
// spec. Two specs that produce bit-identical results under Run encode to
// the same bytes (see the package comment above for the normalization
// rules). The encoding round-trips through ParseSpec.
func (s Spec) CanonicalJSON() ([]byte, error) {
	k, err := s.Key()
	return k.JSON, err
}

// Key is a spec's canonical encoding and its hash, derived once: a caller
// that needs the job key before it plans (the service, to find a job it
// already holds) hands the same Key to NewPlanWithKey, so the spec is not
// encoded or hashed again.
type Key struct {
	// JSON is the canonical encoding (CanonicalJSON).
	JSON []byte
	// Hash is the hex sha256 of JSON (Hash).
	Hash string
	// spec is the canonical spec JSON was marshalled from; the plan
	// marshals its cell base from it.
	spec Spec
}

// Key returns the spec's canonical encoding and hash.
func (s Spec) Key() (Key, error) {
	c, err := s.canonical()
	if err != nil {
		return Key{}, err
	}
	b, err := json.Marshal(c)
	if err != nil {
		return Key{}, err
	}
	sum := sha256.Sum256(b)
	return Key{JSON: b, Hash: hex.EncodeToString(sum[:]), spec: c}, nil
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
func (k Key) cellBase() ([]byte, error) {
	s := k.spec
	s.Name, s.Policies, s.Points, s.Seed, s.Reps = "", nil, nil, 0, 0
	return json.Marshal(s)
}

// canonical returns the normalized copy of the spec that Key marshals.
func (s Spec) canonical() (Spec, error) {
	s = s.withDefaults()
	if len(s.Platform.Clusters) > 0 {
		s.Platform.Preset = "" // ignored beside a cluster list
	}
	w := WorkloadSpec{Kind: s.Workload.Kind, Criticality: s.Workload.Criticality}
	switch w.Kind {
	case Synthetic:
		w.Synthetic = s.Workload.Synthetic.Defaults()
	case KMeans:
		w.KMeans = s.Workload.KMeans.Defaults()
		w.Criticality = ""
	case HeatDist:
		w.Heat = s.Workload.Heat.Defaults()
		w.Criticality = ""
	case DAGFile:
		if s.Workload.DAG == nil {
			return Spec{}, fmt.Errorf("scenario: cannot encode dagfile workload without a graph")
		}
		w.DAG = s.Workload.DAG.Canonical()
	case DAGGen:
		w.DAGGen = s.Workload.DAGGen.Defaults()
	default:
		return Spec{}, fmt.Errorf("scenario: cannot encode unknown workload kind %v (known kinds: %s)", s.Workload.Kind, workloadKindList())
	}
	s.Workload = w

	s.Disturb = slices.Clone(s.Disturb)
	for i, d := range s.Disturb {
		// apply() substitutes the default ramp when steps are unset, so
		// the two spellings are the same schedule — and the same key.
		if d.Kind == Throttle && d.RampSteps == 0 {
			s.Disturb[i].RampSteps = 8
		}
	}

	if slices.Contains(s.Policies, nil) {
		return Spec{}, fmt.Errorf("scenario: cannot encode nil policy")
	}
	if s.Policies == nil {
		s.Policies = PolicyList{} // a key encodes no policies as [], a cell base as null
	}
	return s, nil
}

// Hash returns the sha256 of the canonical JSON encoding, hex-encoded.
// It is the deterministic cache key of the spec: invariant under field
// reordering of client JSON, under unset-vs-spelled-out defaults, and
// under execution-only settings (Probe, Progress).
func (s Spec) Hash() (string, error) {
	k, err := s.Key()
	return k.Hash, err
}

// ParseSpec decodes a JSON-encoded spec (canonical or hand-written; key
// order is irrelevant) into a Spec. Unknown fields, unknown enum names and
// unknown policy names are errors: an unknown name's is a
// workloads.NameError, any other wraps encoding/json's. The result is not
// validated beyond that — call Validate or Run.
func ParseSpec(data []byte) (Spec, error) {
	// Every kind name decodes to a valid kind, so one left at -1 was never
	// given: the zero kind, Synthetic, must be asked for.
	s := Spec{Workload: WorkloadSpec{Kind: -1}}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		if !errors.As(err, new(workloads.NameError)) {
			err = fmt.Errorf("scenario: parse spec: %w", err)
		}
		return Spec{}, err
	}
	if s.Workload.Kind == -1 {
		return Spec{}, unknownWorkloadKind("")
	}
	for i, d := range s.Disturb {
		if !slices.Contains(disturbKinds, d.Kind) {
			return Spec{}, workloads.UnknownName("scenario: unknown disturb[%d].kind %q (known kinds: %s)", i, d.Kind, nameList(disturbKinds))
		}
	}
	return s, nil
}

// PolicyList is a spec's policy set. It encodes as the policies' names and
// decodes them with core.ByName; []core.Policy converts to it implicitly.
type PolicyList []core.Policy

// MarshalJSON encodes the list as its policies' names; a nil list is null.
func (l PolicyList) MarshalJSON() ([]byte, error) {
	if l == nil {
		return []byte("null"), nil
	}
	names := make([]string, len(l))
	for i, p := range l {
		names[i] = p.Name()
	}
	return json.Marshal(names)
}

// UnmarshalJSON decodes a list of policy names. An unknown name is
// core.ByName's error, as a workloads.NameError.
func (l *PolicyList) UnmarshalJSON(b []byte) error {
	var names []string
	if err := json.Unmarshal(b, &names); err != nil {
		return err
	}
	*l = make(PolicyList, len(names))
	for i, name := range names {
		if j := slices.IndexFunc(builtinPolicies, func(p core.Policy) bool { return p.Name() == name }); j >= 0 {
			(*l)[i] = builtinPolicies[j]
			continue
		}
		p, err := core.ByName(name)
		if err != nil {
			return workloads.UnknownName("%w", err)
		}
		(*l)[i] = p
	}
	return nil
}

// builtinPolicies is the one list of the built-in policies every decoded spec
// shares: core.ByName and core.All build all seven per call, and a built-in
// policy is immutable.
var builtinPolicies = core.All()

// disturbKinds lists every valid disturbance kind once, like
// workloadKinds (scenario.go) does for workloads.
var disturbKinds = []DisturbKind{CoRunCPU, CoRunMemory, dvfs, stall, Burst, Throttle}

// Unknown-name errors name the offending spec field and enumerate the
// accepted values, so a typo in a submitted document reports
// `unknown workload.kind "sinthetic" (known kinds: ...)` instead of
// just echoing the bad string back.

// nameList renders a kind slice as "a, b, c" for known-kinds errors.
func nameList[T any](ks []T) string {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = fmt.Sprint(k)
	}
	return strings.Join(names, ", ")
}

func workloadKindList() string { return nameList(workloadKinds) }

func unknownWorkloadKind(name string) error {
	return workloads.UnknownName("scenario: unknown workload.kind %q (known kinds: %s)", name, workloadKindList())
}

// MarshalText encodes the kind as its String name.
func (k WorkloadKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a kind's String name.
func (k *WorkloadKind) UnmarshalText(b []byte) error {
	i := slices.IndexFunc(workloadKinds, func(w WorkloadKind) bool { return w.String() == string(b) })
	if i < 0 {
		return unknownWorkloadKind(string(b))
	}
	*k = workloadKinds[i]
	return nil
}
