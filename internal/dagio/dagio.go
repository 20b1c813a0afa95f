// Package dagio makes external task graphs first-class workloads: it
// imports DAG descriptions (GraphViz DOT and a documented JSON schema)
// and expands parametric generators for the classic graphs the
// scheduling literature lives on (tiled Cholesky, tiled LU, fork-join
// chains, seeded random layered DAGs) into the runtime's internal/dag
// representation.
//
// Everything flows through one intermediate form, GraphSpec: importers
// parse into it, generators emit it, and Build turns it into an
// executable *dag.Graph. A GraphSpec is normalized before use — nodes
// sorted by id, edges sorted and deduplicated — so two descriptions of
// the same graph (a DOT file and its JSON twin, or the same file with
// declarations shuffled) are byte-identical after normalization and
// therefore share a content Digest. The scenario layer hashes DAGFile
// workloads by that digest, never by the source path, which keeps the
// service's spec/cell cache keys stable across hosts and file layouts.
//
// Node semantics: Work is abstract compute (cycles on a speed-1.0 core,
// the machine model's Ops unit), Bytes is DRAM traffic split across a
// moldable place's members, Type groups nodes into Performance Trace
// Table classes, and High marks priority (critical) tasks for the
// asymmetry-aware policies.
package dagio

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"dynasym/internal/dag"
	"dynasym/internal/kernels"
	"dynasym/internal/machine"
	"dynasym/internal/ptt"
)

// Node is one task of an imported or generated graph.
type Node struct {
	// ID names the node; unique within the graph.
	ID string `json:"id"`
	// Work is the task's abstract compute in machine-model ops
	// (cycles consumed on a speed-1.0 core per Hz). Must be positive.
	Work float64 `json:"work"`
	// Bytes is the task's DRAM traffic (split across place members).
	Bytes float64 `json:"bytes,omitempty"`
	// Type groups tasks into PTT classes; empty means the default
	// class "task". Each distinct type gets its own Performance Trace
	// Table, so schedulers learn per-type execution profiles.
	Type string `json:"type,omitempty"`
	// High marks the task as high priority (critical).
	High bool `json:"high,omitempty"`
}

// Edge is one dependency: To cannot start before From completes.
type Edge struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// GraphSpec is the declarative task-graph description shared by the
// importers and the generators. It is plain data: Normalize, Validate,
// Digest and Build never mutate the receiver. Its JSON encoding is the
// documented import schema (see json.go) and, for Canonical's result, the
// canonical encoding the scenario layer embeds in spec hashes, so a graph
// submitted as JSON and the same graph imported from DOT produce
// identical canonical bytes.
type GraphSpec struct {
	// Name labels the graph in reports. It is accepted on import for
	// readability, but it is not part of the canonical encoding or the
	// Digest: two structurally identical graphs are the same workload no
	// matter what their sources were called.
	Name  string `json:"name,omitempty"`
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges,omitempty"`
}

// isNormalized reports whether the graph is already in canonical form,
// so the consumers that run once per simulation cell (Build) can skip
// the copy-and-sort for the common case of a graph that came out of a
// parser, a generator, or a previous normalized call.
func (g *GraphSpec) isNormalized() bool {
	for i := 1; i < len(g.Nodes); i++ {
		if g.Nodes[i-1].ID >= g.Nodes[i].ID {
			return false
		}
	}
	for i := 1; i < len(g.Edges); i++ {
		a, b := g.Edges[i-1], g.Edges[i]
		if a.From > b.From || (a.From == b.From && a.To >= b.To) {
			return false
		}
	}
	return true
}

// normalized returns a canonical copy: nodes sorted by ID, edges sorted
// by (From, To) with exact duplicates removed. Two descriptions of the
// same graph normalize to equal values regardless of declaration order.
// An already-normalized graph is returned as-is (no copy).
func (g *GraphSpec) normalized() *GraphSpec {
	if g.isNormalized() {
		return g
	}
	ng := &GraphSpec{Name: g.Name}
	ng.Nodes = append([]Node(nil), g.Nodes...)
	sort.Slice(ng.Nodes, func(i, j int) bool { return ng.Nodes[i].ID < ng.Nodes[j].ID })
	ng.Edges = append([]Edge(nil), g.Edges...)
	sort.Slice(ng.Edges, func(i, j int) bool {
		if ng.Edges[i].From != ng.Edges[j].From {
			return ng.Edges[i].From < ng.Edges[j].From
		}
		return ng.Edges[i].To < ng.Edges[j].To
	})
	dedup := ng.Edges[:0]
	for i, e := range ng.Edges {
		if i == 0 || e != ng.Edges[i-1] {
			dedup = append(dedup, e)
		}
	}
	ng.Edges = dedup
	return ng
}

// Validate checks the graph: at least one node, unique node ids,
// positive work, non-negative bytes, edges between known distinct nodes,
// and acyclicity. Errors name the offending node or edge.
func (g *GraphSpec) Validate() error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("dagio: graph %q has no nodes", g.Name)
	}
	index := make(map[string]int, len(g.Nodes))
	for i, n := range g.Nodes {
		if n.ID == "" {
			return fmt.Errorf("dagio: graph %q: node %d has an empty id", g.Name, i)
		}
		if _, dup := index[n.ID]; dup {
			return fmt.Errorf("dagio: graph %q: duplicate node %q", g.Name, n.ID)
		}
		// NaN fails every comparison, so test finiteness explicitly:
		// a NaN/Inf cost would otherwise sail through into the machine
		// model (or break canonical JSON with an error naming no node).
		if !(n.Work > 0) || math.IsInf(n.Work, 0) {
			return fmt.Errorf("dagio: graph %q: node %q has non-positive or non-finite work %v", g.Name, n.ID, n.Work)
		}
		if !(n.Bytes >= 0) || math.IsInf(n.Bytes, 0) {
			return fmt.Errorf("dagio: graph %q: node %q has negative or non-finite bytes %v", g.Name, n.ID, n.Bytes)
		}
		index[n.ID] = i
	}
	indeg := make([]int, len(g.Nodes))
	succs := make([][]int, len(g.Nodes))
	for _, e := range g.Edges {
		fi, ok := index[e.From]
		if !ok {
			return fmt.Errorf("dagio: graph %q: edge %s -> %s references unknown node %q", g.Name, e.From, e.To, e.From)
		}
		ti, ok := index[e.To]
		if !ok {
			return fmt.Errorf("dagio: graph %q: edge %s -> %s references unknown node %q", g.Name, e.From, e.To, e.To)
		}
		if fi == ti {
			return fmt.Errorf("dagio: graph %q: self-edge on node %q", g.Name, e.From)
		}
		succs[fi] = append(succs[fi], ti)
		indeg[ti]++
	}
	// Kahn's algorithm: any node left unprocessed sits on a cycle.
	queue := make([]int, 0, len(g.Nodes))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	processed := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		processed++
		for _, j := range succs[i] {
			if indeg[j]--; indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if processed != len(g.Nodes) {
		for i, d := range indeg {
			if d > 0 {
				return fmt.Errorf("dagio: graph %q: cycle through node %q", g.Name, g.Nodes[i].ID)
			}
		}
	}
	return nil
}

// Canonical returns the graph's canonical form: normalized, with the name
// stripped. Its JSON encoding is the graph's canonical encoding.
func (g *GraphSpec) Canonical() *GraphSpec {
	ng := g.normalized()
	return &GraphSpec{Nodes: ng.Nodes, Edges: ng.Edges}
}

// Digest returns the sha256 (hex) of the canonical encoding — the
// graph's content identity. Declaration order, source format and file
// path cannot change it; any structural or cost change does.
func (g *GraphSpec) Digest() (string, error) {
	b, err := json.Marshal(g.Canonical())
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// defaultType is the PTT class of nodes with an empty Type.
const defaultType = "task"

// Per-task overheads of imported/generated tasks. Imported graphs
// describe work and traffic but not coordination costs, so every task
// gets the same moderate moldability profile: cheap barriers and a
// width penalty between Copy's and MatMul's.
const (
	taskSyncSeconds  = 2e-6
	taskWidthPenalty = 0.10
)

// typeIDs returns the deterministic PTT type assignment for the graph:
// distinct node types sorted by name, numbered from kernels.TypeUser.
// Sorting (not first-appearance order) keeps the assignment invariant
// under node declaration order, matching the normalized encoding.
func (g *GraphSpec) typeIDs() map[string]ptt.TypeID {
	names := make([]string, 0, 4)
	seen := make(map[string]bool, 4)
	for _, n := range g.Nodes {
		ty := n.Type
		if ty == "" {
			ty = defaultType
		}
		if !seen[ty] {
			seen[ty] = true
			names = append(names, ty)
		}
	}
	sort.Strings(names)
	ids := make(map[string]ptt.TypeID, len(names))
	for i, ty := range names {
		ids[ty] = kernels.TypeUser + ptt.TypeID(i)
	}
	return ids
}

// Build validates the normalized graph and constructs the executable
// *dag.Graph. Tasks are inserted in normalized (id-sorted) order, so the
// runtime sees the same graph — and produces bit-identical schedules —
// no matter how the source file ordered its declarations.
func (g *GraphSpec) Build() (*dag.Graph, error) {
	ng := g.normalized()
	if err := ng.Validate(); err != nil {
		return nil, err
	}
	typeIDs := ng.typeIDs()
	dg := dag.New()
	dg.Grow(len(ng.Nodes), len(ng.Edges))
	tasks := make(map[string]int32, len(ng.Nodes))
	for _, n := range ng.Nodes {
		ty := n.Type
		if ty == "" {
			ty = defaultType
		}
		tasks[n.ID] = dg.Add(dag.Task{
			Label: n.ID,
			Type:  typeIDs[ty],
			High:  n.High,
			Cost: machine.Cost{
				Ops:          n.Work,
				Bytes:        n.Bytes,
				SyncSeconds:  taskSyncSeconds,
				WidthPenalty: taskWidthPenalty,
			},
		})
	}
	for _, e := range ng.Edges {
		dg.AddEdge(tasks[e.From], tasks[e.To])
	}
	return dg, nil
}
