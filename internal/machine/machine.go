// Package machine models the performance of the simulated platform.
//
// It substitutes for the paper's evaluation hardware (Jetson TX2, Haswell
// nodes): given a task's cost descriptor, an execution place, and the
// platform's time-varying condition (DVFS frequency profiles per cluster,
// availability profiles per core for co-runner time-sharing, memory
// bandwidth profiles per cluster for streaming interference), it computes
// when the task finishes.
//
// The model is a piecewise roofline: each member core of a place processes
// its share of the task's compute operations at
//
//	rate(t) = clusterSpeed × freq(t) × availability(t)   [ops/s]
//
// and its share of DRAM traffic at the core's share of the cluster's
// bandwidth profile. The member finishes at the later of its compute and
// memory completion; the task finishes when the slowest member does, plus a
// width-dependent synchronization overhead. Cache fit discounts DRAM
// traffic: working sets that fit in L1/L2 stream far fewer bytes.
//
// # Composed-profile cache
//
// Duration is the simulator's hottest call, so the Model composes, per core,
// the two profiles every prediction needs once, when it is configured:
//
//	rate(t) = clusterSpeed × freq(t) × avail(t)                  [ops/s]
//	bw(t)   = min(membw(t)/clusterCores, bytesPerCycle×freq(t))
//	          × avail(t)                                         [bytes/s]
//
// A constant input folds into the other (profile.Mul and profile.Min2 scale
// or pass through rather than compose), so a core's entry is a stored
// profile unless two time-varying inputs meet on it, say a DVFS clock and a
// bursty co-runner; then it is a profile composite whose value TimeToDo
// computes from those inputs as it scans. An entry that is constant is also
// kept as a number (memberRates), Duration's only fast path.
//
// Invalidation rules: SetClusterFreq and SetClusterBandwidth rebuild the
// cache entries of every core in the cluster; SetCoreAvail rebuilds the one
// core. Nothing else feeds the cache: the other inputs of the model are the
// constants below, and JitterRel is a scalar the runtime reads per draw.
// Configure the model (Set*) strictly before sharing it between goroutines:
// the rebuilds mutate the cache, and only a fully configured Model is safe
// for concurrent readers.
//
// # Sharing
//
// Once configured, a Model is immutable: Duration and the accessors only
// read it (profile.TimeToDo keeps its scan in locals, and a composite
// profile stores nothing it computes). The
// scenario engine relies on that — a plan builds one Model, applies the
// spec's disturbances, and every cell of the plan on every worker reads
// that one instance concurrently (New keeps the struct off other objects'
// cache lines for exactly that reason; see isolatedModel). Nothing may call
// Set* or write JitterRel on a Model a runtime has been handed.
package machine

import (
	"fmt"
	"math"
	"math/bits"

	"dynasym/internal/profile"
	"dynasym/internal/topology"
)

// Cost describes the resource demands of one task for the simulator;
// internal/kernels holds the calibrated descriptors of the paper's kernels.
type Cost struct {
	// Ops is the abstract compute work: cycles consumed on a core of
	// speed 1.0 at availability 1.0 per Hz of clock. A kernel doing F
	// floating point operations at a sustained rate of ipc operations
	// per cycle has Ops = F / ipc.
	Ops float64
	// Bytes is the DRAM traffic that splits across the members of a
	// moldable place (each member streams its own partition).
	Bytes float64
	// SharedBytes is DRAM traffic replicated per member regardless of
	// width (e.g. every member of a row-partitioned matmul streams the
	// whole B tile). It is what makes narrow tasks cheaper per byte.
	SharedBytes float64
	// WorkingSet is the number of bytes the task touches repeatedly; it
	// determines cache fit. Zero means streaming (cache cannot help).
	WorkingSet float64
	// SyncSeconds is the per-barrier cost of coordinating one extra core;
	// total sync overhead for width w is SyncSeconds × log2ceil(w).
	SyncSeconds float64
	// WidthPenalty is the relative parallelization inefficiency β: the
	// per-member compute time is multiplied by 1+β(w−1), modeling
	// partition imbalance, coherence traffic and shared-resource stalls.
	// Small tasks have large β (splitting a 64×64 matmul across four
	// cores hardly pays), streaming kernels small β.
	WidthPenalty float64
	// ParallelFraction is the fraction of Ops that parallelizes across
	// the place's cores (Amdahl). 1.0 if fully parallel; the default 0
	// is treated as 1.0.
	ParallelFraction float64
}

// Model holds the platform's time-varying condition. Build with New, then
// override profiles for interference scenarios. A Model is safe for
// concurrent readers once configured.
type Model struct {
	topo *topology.Platform
	// freq[cluster] is the clock in Hz over time.
	freq []*profile.Profile
	// avail[core] is the fraction of the core's cycles available to the
	// runtime (1.0 = exclusive, 0.5 = time-shared with one co-runner).
	avail []*profile.Profile
	// membw[cluster] is the DRAM bandwidth available to the runtime on
	// that cluster, bytes/s.
	membw []*profile.Profile

	// JitterRel is the relative standard deviation of multiplicative
	// duration noise the runtime draws per execution.
	JitterRel float64

	// rates caches the composed per-core profiles Duration consumes (see
	// the package comment for the cache-invalidation rules).
	rates []memberRates
}

// The model's scalars describe the modelled hardware, not an experiment, so
// they are constants; typed, so arithmetic over them rounds as float64.
const (
	// overhead is the fixed per-task runtime cost (dequeue, place decision,
	// AQ insertion) added to every task duration, in seconds. The paper
	// reports ~1 µs for the PTT search on the TX2.
	overhead float64 = 1e-6
	// TimerRes is the standard deviation of the additive measurement noise
	// the runtime draws on every execution (clock granularity, cache state,
	// branch warm-up), in seconds. Short tasks are proportionally noisier —
	// the effect behind the paper's tile-size sensitivity (Figure 8).
	TimerRes float64 = 40e-6
	// bytesPerCycle caps one core's achievable DRAM bandwidth at
	// bytesPerCycle × freq(t): at low DVFS frequencies even streaming
	// kernels slow down because the core cannot issue enough outstanding
	// misses.
	bytesPerCycle float64 = 2.5
	// l1MissFactor, l2MissFactor, memMissFactor scale Cost.Bytes when the
	// per-core working-set share fits L1, fits L2, or fits nothing.
	l1MissFactor  float64 = 0.05
	l2MissFactor  float64 = 0.30
	memMissFactor float64 = 1.0
)

// memberRates holds one core's composed rate profiles. For constant
// profiles the value is additionally denormalized into rateConst/bwConst
// (0 when the profile varies), letting Duration's member loop use the
// closed-form completion time start + work/v without any calls. It is
// bit-identical to what Profile.TimeToDo's scan returns on a constant,
// which is a single stretch (TestConstantShortcutMatchesTimeToDo).
type memberRates struct {
	// rate is clusterSpeed × freq(t) × avail(t) in ops/s.
	rate *profile.Profile
	// bw is the core's achievable DRAM bandwidth in bytes/s: its share of
	// the cluster bandwidth profile, capped by the frequency-dependent
	// per-core streaming limit, times availability.
	bw        *profile.Profile
	rateConst float64
	bwConst   float64
}

// Jitter carries the per-execution noise drawn by the runtime: a
// multiplicative factor on the work and an additive delay (operating-system
// preemptions, timer interrupts) in seconds. The zero value must not be
// used; NoJitter is the identity.
type Jitter struct {
	Mul float64
	Add float64
}

// NoJitter is the identity noise.
var NoJitter = Jitter{Mul: 1}

// isolatedModel gives a Model's fields cache lines of their own. A plan's
// Model is read by every worker on the simulator's hottest call, and the
// allocator otherwise packs it beside whatever its building goroutine
// allocates next — typically that worker's own runtime state, written on
// every event. Each such write then evicts the line holding Model.topo and
// Model.rates from the other cores: measured at 13 % of a two-worker sweep
// (fig4a + fig7a at paper scale), all of it recovered by the padding.
type isolatedModel struct {
	_ [64]byte
	Model
	_ [64]byte
}

// New builds a Model with constant profiles taken from the platform
// description (nominal frequency, full availability, full bandwidth).
func New(topo *topology.Platform) *Model {
	m := &new(isolatedModel).Model
	*m = Model{
		topo:      topo,
		freq:      make([]*profile.Profile, topo.NumClusters()),
		avail:     make([]*profile.Profile, topo.NumCores()),
		membw:     make([]*profile.Profile, topo.NumClusters()),
		JitterRel: 0.02,
		rates:     make([]memberRates, topo.NumCores()),
	}
	for i := 0; i < topo.NumClusters(); i++ {
		c := topo.Cluster(i)
		m.freq[i] = profile.Constant(c.BaseHz)
		m.membw[i] = profile.Constant(c.MemBandwidth)
	}
	for i := 0; i < topo.NumCores(); i++ {
		m.avail[i] = profile.Constant(1.0)
	}
	for core := range m.rates {
		m.rebuildCore(core)
	}
	return m
}

// rebuildCore recomposes one core's cached profiles from the current freq,
// avail and bandwidth profiles.
func (m *Model) rebuildCore(core int) {
	ci := m.topo.ClusterOf(core)
	cl := m.topo.Cluster(ci)
	bwShare := profile.Min2(m.membw[ci].Scale(1.0/float64(cl.NumCores)), m.freq[ci].Scale(bytesPerCycle))
	r := memberRates{
		rate: profile.Mul(m.freq[ci], m.avail[core]).Scale(cl.Speed),
		bw:   profile.Mul(bwShare, m.avail[core]),
	}
	if r.rate.IsConstant() {
		r.rateConst = r.rate.At(0)
	}
	if r.bw.IsConstant() {
		r.bwConst = r.bw.At(0)
	}
	m.rates[core] = r
}

// rebuildCluster recomposes the cached profiles of every core in a cluster.
func (m *Model) rebuildCluster(ci int) {
	for _, core := range m.topo.CoresOf(ci) {
		m.rebuildCore(core)
	}
}

// Platform returns the platform the model describes.
func (m *Model) Platform() *topology.Platform { return m.topo }

// SetClusterFreq overrides the clock profile (Hz) of cluster ci and
// rebuilds the cluster's cached rate and bandwidth profiles.
func (m *Model) SetClusterFreq(ci int, p *profile.Profile) {
	m.freq[ci] = p
	m.rebuildCluster(ci)
}

// SetCoreAvail overrides the availability profile (0..1) of a core and
// rebuilds that core's cached profiles.
func (m *Model) SetCoreAvail(core int, p *profile.Profile) {
	m.avail[core] = p
	m.rebuildCore(core)
}

// SetClusterBandwidth overrides the memory bandwidth profile (bytes/s) of
// cluster ci and rebuilds the cluster's cached bandwidth profiles.
func (m *Model) SetClusterBandwidth(ci int, p *profile.Profile) {
	m.membw[ci] = p
	m.rebuildCluster(ci)
}

// missFactor returns the DRAM-traffic multiplier for a per-core working-set
// share on the given cluster.
func missFactor(wsShare float64, cl topology.Cluster, width int) float64 {
	if wsShare <= 0 {
		return memMissFactor
	}
	if wsShare <= float64(cl.L1Bytes) {
		return l1MissFactor
	}
	// The L2 is shared: a place of width w can use the whole L2, other
	// places contend. Credit the place with its proportional share.
	l2Share := float64(cl.L2Bytes) * float64(width) / float64(cl.NumCores)
	if wsShare*float64(width) <= l2Share || wsShare <= l2Share {
		return l2MissFactor
	}
	return memMissFactor
}

// Duration returns the finish time of a task with cost c that starts at
// time `start` on place pl, with per-execution noise j (use NoJitter for a
// noiseless prediction). The result includes the fixed runtime overhead.
// It panics if the place is invalid for the platform.
func (m *Model) Duration(c Cost, pl topology.Place, start float64, j Jitter) float64 {
	if !m.topo.Valid(pl) {
		panic(fmt.Sprintf("machine: invalid place %v", pl))
	}
	if j.Mul <= 0 {
		panic("machine: Jitter.Mul must be positive (use NoJitter)")
	}
	ci := m.topo.ClusterOf(pl.Leader)
	cl := m.topo.Cluster(ci)
	w := float64(pl.Width)

	pf := c.ParallelFraction
	if pf <= 0 || pf > 1 {
		pf = 1
	}
	// Serial portion runs on the leader; parallel portion is split evenly
	// and inflated by the width penalty.
	penalty := 1 + float64(c.WidthPenalty*(w-1))
	serialOps := float64(c.Ops * (1 - pf))
	parOps := float64(c.Ops * pf / w * penalty)

	// Memory: per-member share of split DRAM traffic plus the replicated
	// traffic, after the cache-fit discount. Each member draws its cached
	// bw(t) profile: the place's proportional share of the cluster's
	// bandwidth, capped by what one core can stream at the current
	// frequency.
	miss := missFactor((c.WorkingSet/w+c.SharedBytes)*1.0, cl, pl.Width)
	memBytesPerMember := (c.Bytes/w + c.SharedBytes) * miss

	finish := start
	for i := 0; i < pl.Width; i++ {
		core := pl.Leader + i
		ops := parOps
		if i == 0 {
			ops += serialOps
		}
		r := &m.rates[core]
		var tc, tm float64
		opsWork := ops * j.Mul
		if r.rateConst > 0 {
			tc = start
			if opsWork > 0 {
				tc = start + opsWork/r.rateConst
			}
		} else {
			tc = r.rate.TimeToDo(start, opsWork)
		}
		memWork := memBytesPerMember * j.Mul
		if r.bwConst > 0 {
			tm = start
			if memWork > 0 {
				tm = start + memWork/r.bwConst
			}
		} else {
			tm = r.bw.TimeToDo(start, memWork)
		}
		t := math.Max(tc, tm)
		if t > finish {
			finish = t
		}
	}

	// Synchronization overhead grows with the tree depth of the barrier.
	sync := float64(c.SyncSeconds * log2ceil(pl.Width))
	return finish + sync + overhead + j.Add
}

// log2ceil returns ⌈log2(w)⌉ as a float64: the barrier-tree depth of a
// width-w place. bits.Len(w-1) is the position of the highest set bit of
// w-1, which is exactly the number of doublings needed to reach or exceed w.
func log2ceil(w int) float64 {
	if w <= 1 {
		return 0
	}
	return float64(bits.Len(uint(w - 1)))
}
