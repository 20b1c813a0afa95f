// Package core implements the paper's scheduling policies (its primary
// contribution): random work stealing (RWS), RWS with moldability (RWSM-C),
// fixed-asymmetry criticality scheduling (FA, FAM-C), and the dynamic
// asymmetry schedulers (DA, DAM-C, DAM-P) of Algorithm 1.
//
// A Policy makes two kinds of decisions, mirroring the two decision points
// in the paper's Figure 3:
//
//   - WakePlace: when a task becomes ready, which worker's Work-Stealing
//     Queue should hold it (a locality/criticality hint);
//   - DispatchPlace: after a worker dequeues (or steals) the task, the final
//     execution place (leader core, width) before Assembly Queue insertion.
//
// The runtime (internal/simrt) drives policies through this interface;
// policies themselves are stateless apart from the runtime's round-robin
// counter used by the fixed-asymmetry family.
package core

import (
	"fmt"
	"strings"

	"dynasym/internal/ptt"
	"dynasym/internal/topology"
	"dynasym/internal/xrand"
)

// Objective selects what a PTT search minimizes.
type Objective int

const (
	// minCost minimizes predicted time × width (the paper's "parallel
	// cost"), conserving resources.
	minCost Objective = iota
	// minTime minimizes predicted time alone (the paper's "parallel
	// performance"), used by DAM-P for critical tasks.
	minTime
)

// Context carries everything a policy may consult for one decision.
// Pointers reference runtime-owned state. Runtimes may reuse a single
// Context value across decisions (simrt refills one scratch on its hot
// path), so policies must consume it within the WakePlace/DispatchPlace
// call and never retain it.
type Context struct {
	// Self is the core making the decision (the waker at wake time, the
	// dispatching worker at dispatch time).
	Self int
	// High reports the task's priority class.
	High bool
	// Type is the task's type id, selecting its PTT.
	Type ptt.TypeID
	// Table is the task type's Performance Trace Table; nil when the
	// policy does not use a model.
	Table *ptt.Table
	// Topo is the platform.
	Topo *topology.Platform
	// Rand is the deciding worker's deterministic RNG (used only by
	// policies that randomize, none of the built-in seven do).
	Rand *xrand.RNG
	// RR is the runtime's round-robin counter for fixed-asymmetry
	// placement.
	RR *uint64
	// Load, when non-nil, estimates the earliest time (seconds from now)
	// at which a core could start new work. Runtimes provide it for
	// finish-time-based baselines such as dHEFT; the paper's seven
	// policies ignore it.
	Load func(core int) float64
}

// Policy is one scheduling algorithm from the paper's Table 1.
type Policy interface {
	// Name returns the paper's name for the policy ("DAM-C" etc.).
	Name() string
	// UsesPTT reports whether the runtime must maintain trace tables and
	// pass them in Context.Table.
	UsesPTT() bool
	// AllowPrioritySteal reports whether high-priority tasks may be
	// stolen. The paper disables stealing of high-priority tasks for
	// every policy that makes placement decisions; only the random
	// work-stealing family steals them.
	AllowPrioritySteal() bool
	// WakePlace returns the core whose WSQ should receive a newly ready
	// task. ok=false means "no preference: push to the waking worker".
	WakePlace(ctx *Context) (leader int, ok bool)
	// DispatchPlace returns the final execution place for a task the
	// worker ctx.Self is about to dispatch.
	DispatchPlace(ctx *Context) topology.Place
}

// Feature strings for the paper's Table 1.
type Features struct {
	Asymmetry string // "N/A", "Fixed", "Dynamic"
	Mold      string // "N/A", "No", "Yes"
	Placement string // "N/A", "Resource Cost", "Performance", "Fast cores"
}

type highMode int

const (
	highNone   highMode = iota // treat like low priority (RWS family)
	highFastRR                 // round-robin over the statically fastest cluster
	highGlobal                 // global PTT search
)

// policy is the single configurable implementation behind all seven names.
type policy struct {
	name      string
	usesPTT   bool
	stealHigh bool
	// low-priority dispatch: local width search (moldability) or width 1.
	lowSearch bool
	// high-priority handling.
	high     highMode
	highObj  Objective
	highWOne bool // restrict global search to width-1 places (DA)
	highMold bool // fixed-asymmetry family: local width search at the fast core
	features Features
}

func (p *policy) Name() string             { return p.name }
func (p *policy) UsesPTT() bool            { return p.usesPTT }
func (p *policy) AllowPrioritySteal() bool { return p.stealHigh }

// WakePlace implements the wake-time WSQ choice. Low-priority tasks always
// go to the waking worker's own queue ("keeping the mapping of the task to
// its local resource partition enhances data-reuse across dependent
// tasks"). High-priority tasks are routed by the policy's placement scheme.
func (p *policy) WakePlace(ctx *Context) (int, bool) {
	if !ctx.High {
		return 0, false
	}
	switch p.high {
	case highFastRR:
		fast := ctx.Topo.CoresOf(ctx.Topo.FastestCluster())
		n := *ctx.RR
		*ctx.RR++
		return fast[int(n)%len(fast)], true
	case highGlobal:
		pl := globalBest(ctx.Table, ctx.Topo, p.highObj, p.highWOne)
		return pl.Leader, true
	default:
		return 0, false
	}
}

// DispatchPlace implements Algorithm 1.
func (p *policy) DispatchPlace(ctx *Context) topology.Place {
	if ctx.High {
		switch p.high {
		case highGlobal:
			return globalBest(ctx.Table, ctx.Topo, p.highObj, p.highWOne)
		case highFastRR:
			if p.highMold {
				return localBest(ctx.Table, ctx.Topo, ctx.Self)
			}
			return topology.Place{Leader: ctx.Self, Width: 1}
		}
		// highNone: fall through to the low-priority path.
	}
	if p.lowSearch {
		return localBest(ctx.Table, ctx.Topo, ctx.Self)
	}
	return topology.Place{Leader: ctx.Self, Width: 1}
}

// localBest performs the paper's local search: the resource partition and
// core stay fixed (the place must contain `core`), only the width is molded
// to minimize predicted time × width — the one objective the Table 1 policies
// search locally for. Unmeasured places (zero entries) win immediately so
// every width is explored at least once. It is served from the table's
// per-core cached best, which only rescans after an update.
func localBest(t *ptt.Table, topo *topology.Platform, core int) topology.Place {
	return topo.Places()[t.BestLocalCost(core)]
}

// globalBest performs the paper's global search over every execution place
// in the system. widthOne restricts the sweep to single-core places (the
// non-moldable DA scheduler). Ties keep the first place in platform order,
// which makes exploration deterministic. All three variants are served
// from the table's generation-stamped caches, so between PTT updates a
// decision costs one comparison instead of a full-table scan.
func globalBest(t *ptt.Table, topo *topology.Platform, obj Objective, widthOne bool) topology.Place {
	var id int
	switch {
	case widthOne:
		// Width-1 places have cost == time, so one cache serves both
		// objectives.
		id = t.BestGlobalW1()
	case obj == minCost:
		id = t.BestGlobalCost()
	default:
		id = t.BestGlobalTime()
	}
	return topo.Places()[id]
}

// The seven schedulers of Table 1.

// RWS is random work stealing: no priority handling, no model, width 1.
func RWS() Policy {
	return &policy{
		name: "RWS", stealHigh: true,
		features: Features{Asymmetry: "N/A", Mold: "N/A", Placement: "N/A"},
	}
}

// RWSMC is RWS plus moldability targeting resource cost; it maintains a PTT
// to select widths but ignores priority.
func RWSMC() Policy {
	return &policy{
		name: "RWSM-C", usesPTT: true, stealHigh: true, lowSearch: true,
		features: Features{Asymmetry: "N/A", Mold: "Yes", Placement: "Resource Cost"},
	}
}

// fa is the fixed-asymmetry criticality scheduler: high-priority tasks are
// pinned round-robin to the statically fastest cluster, width 1.
func fa() Policy {
	return &policy{
		name: "FA", high: highFastRR,
		features: Features{Asymmetry: "Fixed", Mold: "No", Placement: "Fast cores"},
	}
}

// faMC is FA plus moldability targeting resource cost.
func faMC() Policy {
	return &policy{
		name: "FAM-C", usesPTT: true, lowSearch: true, high: highFastRR, highMold: true,
		features: Features{Asymmetry: "Fixed", Mold: "Yes", Placement: "Resource Cost"},
	}
}

// DA is the dynamic asymmetry scheduler without moldability: critical tasks
// go to the globally fastest single core according to the PTT.
func DA() Policy {
	return &policy{
		name: "DA", usesPTT: true, high: highGlobal, highObj: minTime, highWOne: true,
		features: Features{Asymmetry: "Dynamic", Mold: "No", Placement: "N/A"},
	}
}

// DAMC is the dynamic asymmetry scheduler with moldability targeting
// parallel cost (Algorithm 1, DAM-C branch).
func DAMC() Policy {
	return &policy{
		name: "DAM-C", usesPTT: true, lowSearch: true, high: highGlobal, highObj: minCost,
		features: Features{Asymmetry: "Dynamic", Mold: "Yes", Placement: "Resource Cost"},
	}
}

// DAMP is the dynamic asymmetry scheduler with moldability whose critical
// tasks target best parallel performance (Algorithm 1, DAM-P branch).
func DAMP() Policy {
	return &policy{
		name: "DAM-P", usesPTT: true, lowSearch: true, high: highGlobal, highObj: minTime,
		features: Features{Asymmetry: "Dynamic", Mold: "Yes", Placement: "Performance"},
	}
}

// All returns the seven policies in the paper's Table 1 order.
func All() []Policy {
	return []Policy{RWS(), RWSMC(), fa(), faMC(), DA(), DAMC(), DAMP()}
}

// ByName returns the policy with the given (case-sensitive) paper name,
// "dHEFT", "<base>+steal" or "<base>-wake" for a Table 1 base (the ablation
// wrappers), or "<base>~<K>": the sampled search over a Table 1 base or
// dHEFT (see Sampled).
func ByName(name string) (Policy, error) {
	if p := builtin(name); p != nil {
		return p, nil
	}
	if base, ok := strings.CutSuffix(name, "+steal"); ok {
		if p := tableOne(base); p != nil {
			return stealablePolicy{p}, nil
		}
	}
	if base, ok := strings.CutSuffix(name, "-wake"); ok {
		if p := tableOne(base); p != nil {
			return noWakePolicy{p}, nil
		}
	}
	if i := strings.LastIndex(name, "~"); i > 0 {
		return sampledByName(name, name[:i], name[i+1:])
	}
	return nil, fmt.Errorf("core: unknown policy %q", name)
}

// tableOne returns the Table 1 policy with the given name, or nil.
func tableOne(name string) Policy {
	for _, p := range All() {
		if p.Name() == name {
			return p
		}
	}
	return nil
}

// builtin returns the unwrapped policy with the given name: a Table 1
// policy or dHEFT, or nil.
func builtin(name string) Policy {
	if name == "dHEFT" {
		return dheft{}
	}
	return tableOne(name)
}

// stealablePolicy is the "+steal" ablation wrapper: it re-enables stealing
// of high-priority tasks, ablating the paper's "disable stealing of high
// priority tasks" rule.
type stealablePolicy struct{ Policy }

func (p stealablePolicy) Name() string             { return p.Policy.Name() + "+steal" }
func (p stealablePolicy) AllowPrioritySteal() bool { return true }

// noWakePolicy is the "-wake" ablation wrapper: it disables wake-time
// routing, leaving only the dispatch-time decision, so newly ready critical
// tasks stay on the waking worker's queue.
type noWakePolicy struct{ Policy }

func (p noWakePolicy) Name() string                   { return p.Policy.Name() + "-wake" }
func (p noWakePolicy) WakePlace(*Context) (int, bool) { return 0, false }

// FeaturesOf returns the Table 1 feature row for a built-in policy.
func FeaturesOf(p Policy) Features {
	if pp, ok := p.(*policy); ok {
		return pp.features
	}
	return Features{Asymmetry: "?", Mold: "?", Placement: "?"}
}
