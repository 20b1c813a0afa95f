// Package ptt implements the Performance Trace Table, the online
// per-task-type performance model from the paper (Section 4.1.1) and from
// Rohlin et al. (HIP3ES 2019).
//
// One Table exists per task type. Each entry corresponds to one valid
// execution place (core, width) of the platform and holds a weighted moving
// average of execution times observed by the leader core of that place.
// Entries are initialized to zero, which the schedulers interpret as
// "unmeasured": a zero entry always wins a minimizing search, so every place
// is explored at least once before the model steers placement.
//
// The default update rule matches the paper's sensitivity analysis winner:
//
//	updated = (4*old + 1*new) / 5
//
// Tables and registries are plain data owned by one simulated runtime, and a
// runtime runs on one goroutine (the event engine's): nothing here is
// synchronized. Concurrent cells each own their runtime and its tables.
package ptt

import (
	"fmt"
	"math"

	"dynasym/internal/topology"
)

// TypeID identifies a task type. Each function implemented as a task gets
// its own TypeID and therefore its own Table, because per-place performance
// varies per type.
type TypeID int

// Table is the Performance Trace Table for one task type.
//
// The paper lays out rows per core so each worker touches one cache line;
// here it is a flat slice indexed by dense place id, in which a worker's
// local places are contiguous.
type Table struct {
	topo *topology.Platform
	// alpha is the weight of the new observation (paper: 1/5);
	// oneMinusAlpha is its precomputed complement so the update rule is one
	// fused multiply-add per observation.
	alpha         float64
	oneMinusAlpha float64
	// entries[placeID] holds the weighted average, in seconds.
	entries []float64
	// gen counts successful updates, starting at 1, and stamps the cached
	// best places below: a cache whose stamp equals gen reflects the current
	// entries; any update (or Reset) invalidates every cache by bumping gen.
	// Schedulers query a best place on each dispatch decision but the table
	// only changes on task completion, so between completions the
	// minimizing searches collapse to one comparison.
	gen uint64
	// Cached minimizing-search results. bestLocalCost is indexed by core.
	bestCostAll   bestPlace
	bestTimeAll   bestPlace
	bestW1        bestPlace
	bestLocalCost []bestPlace
}

// bestPlace caches one minimizing search: the winning place id and the
// table generation it was computed at (0, which no table ever has, means
// never computed).
type bestPlace struct {
	gen uint64
	id  int
}

// defaultAlpha is the paper's chosen new-sample weight (ratio 1:4).
const defaultAlpha = 1.0 / 5.0

// NewTable builds an empty table for the platform. alpha is the weight given
// to new observations, in (0, 1]; alpha==1 replaces the entry outright
// (the "1" configuration of Figure 8). Passing alpha <= 0 selects
// defaultAlpha.
func NewTable(topo *topology.Platform, alpha float64) *Table {
	t := &Table{}
	t.adopt(topo, alpha)
	return t
}

// clampAlpha normalizes a configured new-observation weight: non-positive
// selects the paper's default, values above 1 saturate.
func clampAlpha(alpha float64) float64 {
	if alpha <= 0 {
		return defaultAlpha
	}
	if alpha > 1 {
		return 1
	}
	return alpha
}

// Value returns the current estimate for the place, in seconds. Zero means
// the place has never been measured.
func (t *Table) Value(pl topology.Place) float64 {
	id := t.topo.PlaceID(pl)
	if id < 0 {
		return math.Inf(1)
	}
	return t.ValueByID(id)
}

// ValueByID returns the estimate for a dense place id.
func (t *Table) ValueByID(id int) float64 {
	return t.entries[id]
}

// Update folds a new observation (seconds) into the entry for the place
// using the weighted-average rule. The first observation is stored directly
// rather than averaged with the zero initializer, so the entry reflects a
// real measurement as soon as one exists. Non-positive and non-finite
// observations are ignored.
func (t *Table) Update(pl topology.Place, observed float64) {
	t.UpdateByID(t.topo.PlaceID(pl), observed)
}

// UpdateByID is Update for a dense place id, skipping place resolution —
// the simulated runtime resolves the id once at dispatch and completion
// reuses it. Negative ids are ignored like invalid places.
func (t *Table) UpdateByID(id int, observed float64) {
	if id < 0 || observed <= 0 || math.IsInf(observed, 0) || math.IsNaN(observed) {
		return
	}
	if old := t.entries[id]; old != 0 {
		observed = float64(t.oneMinusAlpha*old) + float64(t.alpha*observed)
	}
	t.entries[id] = observed
	t.gen++
}

// reset clears every entry back to the unmeasured state.
func (t *Table) reset() {
	clear(t.entries)
	// Bumping (never rewinding) the generation invalidates the cached best
	// places: a stamp from before the Reset can never match again.
	t.gen++
}

// adopt binds the table to a (possibly different) platform and alpha and
// clears it, reusing the entry storage when the shapes match. NewTable is
// adopt on a zero Table.
func (t *Table) adopt(topo *topology.Platform, alpha float64) {
	t.topo = topo
	t.alpha = clampAlpha(alpha)
	t.oneMinusAlpha = 1 - t.alpha
	if n := len(topo.Places()); n != len(t.entries) {
		t.entries = make([]float64, n)
	}
	if n := topo.NumCores(); n != len(t.bestLocalCost) {
		t.bestLocalCost = make([]bestPlace, n)
	}
	// Stale best-place caches need no clearing: the generation bump in
	// Reset outdates every stamp they could carry.
	t.reset()
}

// BestGlobalCost returns the dense id of the place minimizing estimate ×
// width over every place (the paper's global resource-cost search). Zero
// (unmeasured) entries score zero and therefore always win, and ties keep
// the lowest id — the exploration and determinism rules the schedulers
// rely on. The result is cached against the update generation.
func (t *Table) BestGlobalCost() int { return t.cachedGlobal(&t.bestCostAll, true, false) }

// BestGlobalTime is BestGlobalCost minimizing the raw estimate (the
// paper's parallel-performance objective).
func (t *Table) BestGlobalTime() int { return t.cachedGlobal(&t.bestTimeAll, false, false) }

// BestGlobalW1 minimizes over width-1 places only, where cost and time
// coincide.
func (t *Table) BestGlobalW1() int { return t.cachedGlobal(&t.bestW1, false, true) }

// cachedGlobal serves a global minimizing search from its cache,
// rescanning only when the update generation moved since it was stored.
func (t *Table) cachedGlobal(slot *bestPlace, cost, widthOne bool) int {
	if slot.gen == t.gen {
		return slot.id
	}
	places := t.topo.Places()
	best, bestScore := -1, -1.0
	for id, v := range t.entries {
		w := places[id].Width
		if widthOne && w != 1 {
			continue
		}
		if cost {
			v *= float64(w)
		}
		if best < 0 || v < bestScore {
			best, bestScore = id, v
		}
	}
	*slot = bestPlace{gen: t.gen, id: best}
	return best
}

// BestLocalCost returns the dense id of the place minimizing estimate ×
// width among the aligned places containing core (the paper's local width
// search), cached per core against the update generation. Entry order and
// tie-breaking match the uncached search: the width-1 place wins ties.
func (t *Table) BestLocalCost(core int) int {
	slot := &t.bestLocalCost[core]
	if slot.gen == t.gen {
		return slot.id
	}
	cands := t.topo.LocalPlaceIDs(core)
	places := t.topo.Places()
	best := int(cands[0]) // widths ascend, so entry 0 is (core, 1)
	bestScore := t.entries[best]
	for _, cid := range cands[1:] {
		id := int(cid)
		v := t.entries[id] * float64(places[id].Width)
		if v < bestScore {
			best, bestScore = id, v
		}
	}
	*slot = bestPlace{gen: t.gen, id: best}
	return best
}

// Registry holds one Table per task type, created lazily. The zero value is
// unusable until Reset binds it to a platform.
type Registry struct {
	topo   *topology.Platform
	alpha  float64
	tables []*Table // indexed by TypeID; nil for ids never requested
}

// Get returns the table for the task type, creating it on first use. Table
// pointers are stable for the registry's lifetime.
func (r *Registry) Get(id TypeID) *Table {
	if uint(id) < uint(len(r.tables)) {
		if t := r.tables[id]; t != nil {
			return t
		}
	}
	return r.create(id)
}

// create is Get's cold path, kept apart so the lookup inlines.
func (r *Registry) create(id TypeID) *Table {
	if id < 0 {
		panic(fmt.Sprintf("ptt: negative TypeID %d", id))
	}
	for int(id) >= len(r.tables) {
		r.tables = append(r.tables, nil)
	}
	r.tables[id] = NewTable(r.topo, r.alpha)
	return r.tables[id]
}

// Reset binds the registry to a platform and alpha (<= 0 selects
// defaultAlpha): every table unmeasured, future tables built for them, the
// existing tables' storage reused. It may rebind the platform, so pooled
// runtimes can carry one registry across runs that rebuild their topology
// per run.
func (r *Registry) Reset(topo *topology.Platform, alpha float64) {
	r.topo = topo
	r.alpha = alpha
	for _, t := range r.tables {
		if t != nil {
			t.adopt(topo, alpha)
		}
	}
}
