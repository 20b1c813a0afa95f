// Package simrt executes task graphs on the simulated platform.
//
// It reimplements the XiTAO execution protocol the paper builds on
// (Section 4.1.2) as a deterministic state machine over the discrete-event
// engine:
//
//   - each core owns a Work-Stealing Queue (WSQ) of ready tasks and a FIFO
//     Assembly Queue (AQ) of committed moldable executions;
//   - when a task becomes ready its wake-time placement picks a WSQ (high
//     priority tasks are routed by the policy, low priority tasks stay on
//     the waking worker for data reuse);
//   - a worker that dequeues (or steals) a task runs the policy's dispatch
//     decision, then inserts the resulting assembly into the AQs of every
//     member core of the chosen place;
//   - an assembly starts when all members have arrived and finishes when
//     the machine model says the slowest member is done; the leader's
//     observed span updates the task type's Performance Trace Table;
//   - high-priority tasks are not stealable (unless the policy is from the
//     random work-stealing family), exactly like the paper.
//
// Virtual time, stealing victims and measurement jitter are all
// deterministic functions of the configuration seed.
//
// A run keeps one fact per finished assembly: its entry in the runtime's
// completion record (metrics.Record), whose views are the run's statistics.
// A run has one optional observer, Config.Probe (probe.go): the Sched
// aggregate and the Chrome trace of a run are both views of its records.
//
// # Event kinds
//
// The runtime drives the engine through sim's typed, allocation-free event
// API. Its kind table:
//
//	kind       receiver    meaning
//	--------   ---------   ------------------------------------------
//	evStep     coreState   the core takes its next scheduler action
//	                       (join assembly, dispatch, or steal)
//	evAsmDone  assembly    the machine model's finish time arrived;
//	                       release members, update PTT, wake deps
//
// Event times carry the payload: an evAsmDone's `at` is the assembly's
// finish time.
//
// # Steady-state allocation behavior
//
// The hot loops are allocation-free: assemblies are pooled per runtime,
// WSQs and AQs are reusable ring buffers, the policy Context is a reused
// scratch, wakeups touch only the idle-core bitmap, and typed events live
// by value in the engine's heap slice. The allocation-regression tests in
// alloc_test.go hold this property in place.
package simrt

import (
	"fmt"
	"math"
	"math/bits"

	"dynasym/internal/core"
	"dynasym/internal/dag"
	"dynasym/internal/machine"
	"dynasym/internal/metrics"
	"dynasym/internal/ptt"
	"dynasym/internal/sim"
	"dynasym/internal/topology"
	"dynasym/internal/xrand"
)

// ExecHook lets a workload decide when selected task executions finish (the
// distributed Heat workload's boundary exchanges finish when the network
// says so).
type ExecHook interface {
	// Exec is offered every execution as it starts: task t on place pl at
	// virtual time start. Returning false leaves the execution to the
	// machine model. Returning true takes it over: the hook must then call
	// rt.Finish(x, finish) exactly once, during Exec or from any later event
	// on the runtime's engine.
	Exec(rt *Runtime, x Execution, t *dag.Task, pl topology.Place, start float64) bool
}

// Execution is the opaque handle of one started task execution, valid from
// the Exec call that received it until it is passed to Finish.
type Execution struct{ a *assembly }

// Config configures a simulated runtime instance: what runs where, under
// which policy and seed, and who watches. The runtime's timing model is not
// configuration (see the constants below).
type Config struct {
	// Topo is the platform this runtime schedules on. Required.
	Topo *topology.Platform
	// Model provides task durations. Required (build with machine.New).
	Model *machine.Model
	// Policy is the scheduling policy. Required.
	Policy core.Policy
	// Alpha is the PTT new-observation weight; <= 0 selects the paper's
	// 1/5 default.
	Alpha float64
	// Seed drives all randomness (stealing, jitter).
	Seed uint64
	// Engine lets several runtimes share one virtual clock (distributed
	// experiments); nil allocates a private engine.
	Engine *sim.Engine
	// Hook optionally takes over execution of selected tasks.
	Hook ExecHook
	// Probe, when non-nil, observes the run: every task execution, the
	// steal matrix, queue depths and PTT error, for Probe.Sched and
	// Probe.WriteChromeTrace (see probe.go). Pure observation: a probed run is
	// bit-identical to an unprobed one, and a nil Probe costs one pointer
	// check per hook site.
	Probe *Probe
}

// The runtime's timing model: properties of the modelled XiTAO runtime and
// board, not of an experiment, so constants rather than Config fields (the
// one tunable the paper admits, the PTT weight, is Config.Alpha). Typed, so
// expressions over them round as float64 arithmetic instead of folding
// exactly.
const (
	// dispatchCost is the virtual time a worker spends per dispatch
	// (dequeue + placement decision + AQ insertion).
	dispatchCost float64 = 0.2e-6
	// stealCost is the virtual time for one steal attempt.
	stealCost float64 = 1e-6
	// wakeLatency is the delay between work appearing and an idle core
	// noticing.
	wakeLatency float64 = 0.5e-6
	// preemptProb is the probability that one task execution absorbs a
	// short isolated system event (OS tick, interrupt); such outliers are
	// what the paper's weighted PTT update is designed to absorb.
	preemptProb float64 = 0.02
	// preemptMin and preemptMax bound the uniformly drawn preemption delay
	// in seconds (timer ticks and daemon blips on a busy embedded board).
	preemptMin float64 = 0.1e-3
	preemptMax float64 = 0.5e-3
	// pollDelay is how long an idle worker waits before probing for work
	// that appeared on another core's queue (idle workers poll rather than
	// receive targeted wakeups, like XiTAO's spin-steal loop with yields).
	pollDelay float64 = 20e-6
)

type coreStateKind int32

const (
	stIdle coreStateKind = iota
	stScheduled
	stBusy
)

// Typed event kinds (see the package comment's kind table).
const (
	evStep sim.EventKind = iota
	evAsmDone
)

type assembly struct {
	rt      *Runtime
	tref    int32 // packed task reference (see soa.go)
	hooked  bool  // taken or being offered to the exec hook, not yet finished
	place   topology.Place
	placeID int32 // dense id of place, resolved once at dispatch
	arrived int
	start   float64
	finish  float64 // estimated, for load queries; 0 until started
}

// HandleEvent completes the assembly at its scheduled finish time.
func (a *assembly) HandleEvent(_ sim.EventKind, at float64) {
	a.rt.completeAssembly(a, at)
}

type coreState struct {
	id    int
	rt    *Runtime
	state coreStateKind
	wsq   deque
	aq    asmQueue
	cur   *assembly
	rng   *xrand.RNG

	steals       int64
	failedSteals int64
	dispatches   int64
}

// HandleEvent performs the core's next scheduler action.
func (c *coreState) HandleEvent(sim.EventKind, float64) { c.rt.step(c) }

// Runtime is one simulated runtime instance. Not safe for concurrent use;
// everything runs on the engine's goroutine.
type Runtime struct {
	cfg      Config
	engine   *sim.Engine
	topo     *topology.Platform
	model    *machine.Model
	policy   core.Policy
	reg      ptt.Registry
	coll     metrics.Record // the run's completion record
	rr       uint64         // round-robin counter the fixed-asymmetry policies share
	cores    []*coreState
	root     xrand.RNG
	started  bool
	finished bool

	// idle is a bitmap over core ids mirroring state == stIdle exactly,
	// so wakeTask pokes only idle workers — O(idle) instead of a scan of
	// every core per wake, which dominated at scaleout core counts.
	idle []uint64
	// wsqAny and wsqLow mirror, per core, wsq.Len() > 0 and
	// wsq.LowLen() > 0. The steal sweep consults the bitmap matching the
	// policy's priority regime, so a failed sweep costs a few word scans
	// instead of probing every core's deque.
	wsqAny []uint64
	wsqLow []uint64
	// asmFree pools assembly records; completed assemblies are recycled
	// so steady-state dispatch allocates nothing.
	asmFree []*assembly
	// ctxScratch is the reused policy-decision context (policies consume
	// it synchronously and must not retain it).
	ctxScratch core.Context
	// loadFn is loadEstimate bound once; a fresh method value per
	// decision would allocate.
	loadFn func(core int) float64
	// graph is the snapshot of the graph being executed, shared and
	// read-only (see soa.go); pending is the run's own copy of its
	// unsatisfied-predecessor counts, remaining the unfinished tasks.
	graph     *dag.Frozen
	pending   []int32
	remaining int
	// prioSteal and usesPTT cache the policy's constant traits; the hot
	// loop consults them several times per event and an interface call per
	// consult is measurable at scale-out event rates.
	prioSteal bool
	usesPTT   bool
	// privEngine records that the runtime allocated its engine itself
	// (Config.Engine was nil), so Reset owns it and may recycle it in place.
	privEngine bool
}

// validateConfig checks the required fields.
func validateConfig(cfg *Config) error {
	if cfg.Topo == nil {
		return fmt.Errorf("simrt: Config.Topo is required")
	}
	if cfg.Model == nil {
		return fmt.Errorf("simrt: Config.Model is required")
	}
	if cfg.Policy == nil {
		return fmt.Errorf("simrt: Config.Policy is required")
	}
	if cfg.Model.Platform() != cfg.Topo {
		return fmt.Errorf("simrt: Model built for a different platform")
	}
	return nil
}

// New validates the configuration and builds a runtime: a Reset of the zero
// Runtime, so a recycled runtime equals a fresh one by construction.
func New(cfg Config) (*Runtime, error) {
	rt := &Runtime{}
	if err := rt.Reset(cfg); err != nil {
		return nil, err
	}
	return rt, nil
}

// buildCores allocates the per-core state, bitmaps, and assembly pool for
// the current topology, splitting the per-core RNGs off the root in
// ascending core order.
func (rt *Runtime) buildCores() {
	rt.cores = make([]*coreState, rt.topo.NumCores())
	words := (rt.topo.NumCores() + 63) / 64
	rt.idle = make([]uint64, words)
	rt.wsqAny = make([]uint64, words)
	rt.wsqLow = make([]uint64, words)
	for i := range rt.cores {
		c := &coreState{id: i, rt: rt, rng: rt.root.Split()}
		c.wsq.reserve(8)
		c.aq.reserve(8)
		rt.cores[i] = c
		rt.markIdle(i)
	}
	// Warm the assembly pool so steady-state dispatch never allocates: the
	// number of live assemblies is bounded by the queued + running set,
	// which rarely exceeds a couple per core.
	rt.asmFree = make([]*assembly, 2*len(rt.cores))
	for i := range rt.asmFree {
		rt.asmFree[i] = &assembly{}
	}
}

// Reset puts the runtime in the state a run of cfg starts from, reusing its
// allocations — core states, queue rings, the assembly pool, per-core RNGs,
// the registry, the completion record and (when privately owned) the engine.
// Scenario runners execute thousands of short cells back to back; rebuilding
// the runtime per cell dominated their allocation profile.
//
// A reused runtime is bit-identical to a fresh one because New is this
// function on a zero Runtime: the per-core RNGs are split off the reseeded
// root in ascending core order either way, and the PTT generation counters
// only ever advance, so no stale cached decision can survive. Reset accepts a
// different topology/policy/seed than the previous run (shape changes rebuild
// the per-core state).
func (rt *Runtime) Reset(cfg Config) error {
	if err := validateConfig(&cfg); err != nil {
		return err
	}
	// Adopt the caller's engine when provided, recycle our own private one
	// otherwise. A runtime that previously adopted a shared engine must not
	// reset it — the caller owns it — so it allocates a fresh private one.
	if cfg.Engine != nil {
		rt.engine = cfg.Engine
		rt.privEngine = false
	} else if rt.privEngine {
		rt.engine.Reset()
	} else {
		rt.engine = sim.New()
		rt.privEngine = true
	}
	rt.reg.Reset(cfg.Topo, cfg.Alpha)
	rt.coll.Reset(cfg.Topo, nil, 0)
	sameShape := len(rt.cores) == cfg.Topo.NumCores()
	rt.cfg = cfg
	rt.topo = cfg.Topo
	rt.model = cfg.Model
	rt.policy = cfg.Policy
	rt.prioSteal = cfg.Policy.AllowPrioritySteal()
	rt.usesPTT = cfg.Policy.UsesPTT()
	rt.rr = 0
	rt.root.Reseed(cfg.Seed)
	if sameShape {
		clear(rt.idle)
		clear(rt.wsqAny)
		clear(rt.wsqLow)
		for _, c := range rt.cores {
			c.state = stIdle
			c.cur = nil
			c.wsq.clear()
			c.aq.clear()
			rt.root.SplitInto(c.rng)
			c.steals = 0
			c.failedSteals = 0
			c.dispatches = 0
			rt.markIdle(c.id)
		}
	} else {
		rt.buildCores()
	}
	if rt.loadFn == nil {
		rt.loadFn = rt.loadEstimate
	}
	rt.ctxScratch = core.Context{Topo: rt.topo, RR: &rt.rr, Load: rt.loadFn}
	rt.graph = nil // Start attaches the next one; do not pin the previous
	rt.started = false
	rt.finished = false
	if cfg.Probe != nil {
		cfg.Probe.reset(rt)
	}
	return nil
}

// markIdle sets a core's bit in the idle bitmap.
func (rt *Runtime) markIdle(core int) { rt.idle[core>>6] |= 1 << (uint(core) & 63) }

// clearIdle clears a core's bit in the idle bitmap.
func (rt *Runtime) clearIdle(core int) { rt.idle[core>>6] &^= 1 << (uint(core) & 63) }

// updateWSQBits refreshes a core's stealable-work bits after any WSQ
// mutation. Every wsq push/pop site must call it.
func (rt *Runtime) updateWSQBits(c *coreState) {
	w, b := c.id>>6, uint64(1)<<(uint(c.id)&63)
	if c.wsq.Len() > 0 {
		rt.wsqAny[w] |= b
	} else {
		rt.wsqAny[w] &^= b
	}
	if c.wsq.LowLen() > 0 {
		rt.wsqLow[w] |= b
	} else {
		rt.wsqLow[w] &^= b
	}
}

// nextSetBit returns the first set bit index in [from, limit), or -1.
func nextSetBit(bm []uint64, from, limit int) int {
	if from >= limit {
		return -1
	}
	wi := from >> 6
	word := bm[wi] &^ (1<<(uint(from)&63) - 1)
	for {
		if word != 0 {
			if idx := wi<<6 + bits.TrailingZeros64(word); idx < limit {
				return idx
			}
			return -1
		}
		wi++
		if wi<<6 >= limit {
			return -1
		}
		word = bm[wi]
	}
}

// findVictim returns the first core at or after start (cyclically, skipping
// self) whose bit is set, or nil. This visits cores in exactly the order
// the O(cores) probe sweep used, so steal victims are unchanged.
func (rt *Runtime) findVictim(bm []uint64, start, self int) *coreState {
	n := len(rt.cores)
	idx := nextSetBit(bm, start, n)
	if idx == self {
		idx = nextSetBit(bm, idx+1, n)
	}
	if idx < 0 {
		idx = nextSetBit(bm, 0, start)
		if idx == self {
			idx = nextSetBit(bm, idx+1, start)
		}
	}
	if idx < 0 {
		return nil
	}
	return rt.cores[idx]
}

// Engine returns the runtime's event engine.
func (rt *Runtime) Engine() *sim.Engine { return rt.engine }

// Collector returns the runtime's completion record, whose views are the
// run's statistics. It is valid until the runtime's next Reset.
func (rt *Runtime) Collector() *metrics.Record { return &rt.coll }

// Finished reports whether the graph drained.
func (rt *Runtime) Finished() bool { return rt.finished }

// Run executes the graph to completion on a private engine — freezing a
// graph nobody froze yet — and returns the completion record. It fails if the
// configuration shares an engine (use Start and drive the engine yourself)
// or if execution stalls.
func (rt *Runtime) Run(g *dag.Graph) (*metrics.Record, error) {
	fz, err := g.Snapshot(), error(nil)
	if fz == nil {
		fz, err = g.Freeze()
	}
	if err == nil {
		err = rt.Start(fz)
	}
	if err != nil {
		return nil, err
	}
	rt.engine.Run()
	if !rt.finished {
		return nil, fmt.Errorf("simrt: execution stalled with %d tasks outstanding (possible dependency deadlock)", rt.remaining)
	}
	return &rt.coll, nil
}

// Start attaches the runtime to a frozen graph and schedules the initial
// events. A frozen graph is only read, so any number of runtimes may execute
// one at the same time. The caller is responsible for running the engine
// (shared-engine mode).
func (rt *Runtime) Start(fz *dag.Frozen) error {
	if rt.started {
		return fmt.Errorf("simrt: runtime already started")
	}
	rt.started = true
	rt.graph = fz
	rt.pending = fz.AppendPending(rt.pending[:0])
	rt.remaining = len(rt.pending)
	rt.coll.Reset(rt.topo, fz, rt.remaining)
	// The initially ready tasks are the zero counts, in insertion order.
	ready := 0
	for i, deps := range rt.pending {
		if deps == 0 {
			ready++
			rt.wakeTask(makeTref(i, fz.High(i)), 0)
		}
	}
	if ready == 0 && rt.remaining > 0 {
		return fmt.Errorf("simrt: graph has %d tasks but none ready (cycle?)", rt.remaining)
	}
	if rt.remaining == 0 {
		rt.finished = true
		if p := rt.cfg.Probe; p != nil {
			p.flush(0)
		}
		return nil
	}
	for _, c := range rt.cores {
		rt.scheduleStep(c, wakeLatency)
	}
	return nil
}

// scheduleStep queues a step for an idle core after delay seconds.
func (rt *Runtime) scheduleStep(c *coreState, delay float64) {
	if c.state != stIdle {
		return
	}
	c.state = stScheduled
	rt.clearIdle(c.id)
	rt.engine.AfterEvent(delay, c, evStep)
}

// table returns the PTT for a task type, or nil when the policy does not
// use a model.
func (rt *Runtime) table(id ptt.TypeID) *ptt.Table {
	if !rt.usesPTT {
		return nil
	}
	return rt.reg.Get(id)
}

// ctx refills the runtime's scratch decision context. The invariant fields
// (Topo, RR, Load) are set once in New; only the per-decision fields are
// written here. Policies consume the context within the
// WakePlace/DispatchPlace call, so one scratch per runtime suffices and the
// hot path stays allocation-free.
func (rt *Runtime) ctx(self int, tr int32) *core.Context {
	c := &rt.ctxScratch
	c.Self = self
	c.High = tr&1 != 0
	typ := rt.graph.Type(int(tr >> 1))
	if c.Type != typ || c.Table == nil {
		c.Type = typ
		c.Table = rt.table(typ)
	}
	c.Rand = rt.cores[self].rng
	return c
}

// loadEstimate reports how many seconds from now the core is expected to be
// occupied (assembly remainder only; queued work is not counted).
func (rt *Runtime) loadEstimate(coreID int) float64 {
	c := rt.cores[coreID]
	if c.cur == nil || c.cur.finish == 0 {
		return 0
	}
	d := c.cur.finish - rt.engine.Now()
	if d < 0 {
		return 0
	}
	return d
}

// wakeTask performs the wake-time placement of a newly ready task: the
// policy may route it (high-priority tasks), otherwise it lands on the
// waking worker's WSQ. Idle cores are then given a chance to steal.
func (rt *Runtime) wakeTask(tr int32, waker int) {
	leader, ok := rt.policy.WakePlace(rt.ctx(waker, tr))
	if !ok {
		leader = waker
	}
	target := rt.cores[leader]
	target.wsq.PushBottom(tr)
	rt.updateWSQBits(target)
	if p := rt.cfg.Probe; p != nil {
		p.queueDelta(rt.engine.Now(), 1, 0)
	}
	rt.scheduleStep(target, wakeLatency)
	if tr&1 == 0 || rt.prioSteal {
		// Idle workers discover remote work by polling, with a per-core
		// stagger so probes do not stampede. The bitmap walk visits
		// exactly the idle cores in ascending id order (the target went
		// non-idle above), so a wake costs O(idle), not O(cores).
		for wi, word := range rt.idle {
			for word != 0 {
				c := rt.cores[wi<<6+bits.TrailingZeros64(word)]
				word &= word - 1
				rt.scheduleStep(c, pollDelay*(0.5+c.rng.Float64()))
			}
		}
	}
}

// step performs one worker action: join the head assembly, dispatch one
// local task, or attempt one steal. Cores go idle when nothing is
// available; new work wakes them.
func (rt *Runtime) step(c *coreState) {
	if c.state != stScheduled {
		panic(fmt.Sprintf("simrt: step on core %d in state %d", c.id, c.state))
	}
	// The core stays in stScheduled while acting, so wake attempts during
	// dispatch (e.g. the core inserting an assembly into its own AQ) are
	// no-ops instead of duplicate step events.

	// 0. Criticality-aware policies dispatch waiting high-priority tasks
	// before anything else, so a critical task routed to this worker is
	// never stranded behind committed low-priority assemblies.
	if !rt.prioSteal {
		if t, ok := c.wsq.PopHigh(); ok {
			rt.updateWSQBits(c)
			if p := rt.cfg.Probe; p != nil {
				p.queueDelta(rt.engine.Now(), -1, 0)
			}
			rt.dispatch(c, t)
			c.dispatches++
			rt.engine.AfterEvent(dispatchCost, c, evStep)
			return
		}
	}

	// 1. Committed assemblies first: another worker may be waiting on us.
	if a := c.aq.PopFront(); a != nil {
		if p := rt.cfg.Probe; p != nil {
			p.queueDelta(rt.engine.Now(), 0, -1)
		}
		c.state = stBusy
		c.cur = a
		a.arrived++
		if a.arrived == a.place.Width {
			rt.startAssembly(a)
		}
		return
	}

	// 2. Local ready tasks. Criticality-aware policies run high-priority
	// tasks first; the RWS family is priority-oblivious.
	if t, ok := c.wsq.PopBottom(!rt.prioSteal); ok {
		rt.updateWSQBits(c)
		if p := rt.cfg.Probe; p != nil {
			p.queueDelta(rt.engine.Now(), -1, 0)
		}
		rt.dispatch(c, t)
		c.dispatches++
		rt.engine.AfterEvent(dispatchCost, c, evStep)
		return
	}

	// 3. Steal: sweep the other cores from a pseudo-random start and take
	// the first victim's oldest stealable task — the event-level
	// equivalent of a spinning thief's rapid successive probes. The
	// stealable-work bitmaps pick the same victim the per-core probe
	// sweep would, in O(words) instead of O(cores). The placement
	// decision is then re-run on this core (the paper's step 4: the PTT
	// is visited again after a successful steal). If no victim exists the
	// core goes idle; new pushes wake idle cores.
	allowHigh := rt.prioSteal
	bm := rt.wsqLow
	if allowHigh {
		bm = rt.wsqAny
	}
	start := c.rng.Intn(len(rt.cores))
	if v := rt.findVictim(bm, start, c.id); v != nil {
		t, ok := v.wsq.StealOldest(allowHigh)
		if !ok {
			panic(fmt.Sprintf("simrt: stealable bitmap out of sync on core %d", v.id))
		}
		rt.updateWSQBits(v)
		c.steals++
		if p := rt.cfg.Probe; p != nil {
			p.queueDelta(rt.engine.Now(), -1, 0)
			p.stole(v.id, c.id, t&1 != 0)
		}
		rt.dispatch(c, t)
		rt.engine.AfterEvent(stealCost, c, evStep)
		return
	}
	c.failedSteals++
	c.state = stIdle
	rt.markIdle(c.id)
	// Nothing to do; wait for a wake.
}

// dispatch runs the final placement decision for tr on worker c and inserts
// the assembly into the AQs of the place's members.
func (rt *Runtime) dispatch(c *coreState, tr int32) {
	pl := rt.policy.DispatchPlace(rt.ctx(c.id, tr))
	pid := rt.topo.PlaceID(pl)
	if pid < 0 {
		panic(fmt.Sprintf("simrt: policy %s produced invalid place %v", rt.policy.Name(), pl))
	}
	a := rt.getAssembly(tr, pl, int32(pid))
	for i := 0; i < pl.Width; i++ {
		m := rt.cores[pl.Leader+i]
		if tr&1 != 0 && pl.Width == 1 {
			// Width-1 high-priority assemblies jump the queue. They run
			// to completion without a rendezvous, so overtaking committed
			// assemblies cannot create a circular wait (wider assemblies
			// could: a member already blocked in an overtaken assembly
			// would deadlock the newcomer's rendezvous).
			m.aq.PushFront(a)
		} else {
			m.aq.PushBack(a)
		}
		rt.scheduleStep(m, wakeLatency)
	}
	if p := rt.cfg.Probe; p != nil {
		p.queueDelta(rt.engine.Now(), 0, pl.Width)
	}
}

// getAssembly takes a pooled assembly record (or allocates the pool's
// growth) and initializes it for one execution.
func (rt *Runtime) getAssembly(tr int32, pl topology.Place, pid int32) *assembly {
	if n := len(rt.asmFree); n > 0 {
		a := rt.asmFree[n-1]
		rt.asmFree[n-1] = nil
		rt.asmFree = rt.asmFree[:n-1]
		*a = assembly{rt: rt, tref: tr, place: pl, placeID: pid}
		return a
	}
	return &assembly{rt: rt, tref: tr, place: pl, placeID: pid}
}

// putAssembly recycles a completed assembly. Callers guarantee no live
// references remain: all members popped it from their AQs and cleared cur,
// and its finish event has fired.
func (rt *Runtime) putAssembly(a *assembly) {
	rt.asmFree = append(rt.asmFree, a)
}

// startAssembly runs when the last member arrives.
func (rt *Runtime) startAssembly(a *assembly) {
	a.start = rt.engine.Now()
	t := rt.graph.Task(int(a.tref >> 1))
	if h := rt.cfg.Hook; h != nil {
		a.hooked = true
		if h.Exec(rt, Execution{a}, t, a.place, a.start) {
			return
		}
		a.hooked = false
	}
	j := rt.drawJitter(a.place.Leader)
	finish := rt.model.Duration(t.Cost, a.place, a.start, j)
	if math.IsInf(finish, 1) {
		panic(fmt.Sprintf("simrt: task %q never finishes on %v (zero rate forever)", t.Label, a.place))
	}
	a.finish = finish
	rt.engine.AtEvent(finish, a, evAsmDone)
}

// Finish completes an execution its hook took over, at absolute virtual time
// finish (clamped to the execution's start). Finishing an execution twice
// panics.
func (rt *Runtime) Finish(x Execution, finish float64) {
	a := x.a
	if !a.hooked {
		panic("simrt: exec hook delivered twice")
	}
	a.hooked = false
	if finish < a.start {
		finish = a.start
	}
	a.finish = finish
	if now := rt.engine.Now(); finish <= now {
		rt.completeAssembly(a, now)
	} else {
		rt.engine.AtEvent(finish, a, evAsmDone)
	}
}

// completeAssembly releases the members, updates the PTT with the leader's
// observed span, appends the completion to the record, and wakes dependents.
// The dependency bookkeeping runs over the snapshot's CSR and the run's own
// counts, and the record was sized at Start — no per-completion allocation,
// and nothing written to the graph.
func (rt *Runtime) completeAssembly(a *assembly, finish float64) {
	fz, idx := rt.graph, int(a.tref>>1)
	rt.coll.Add(metrics.Completion{Place: a.placeID, Task: int32(idx), Start: a.start, Finish: finish})
	tbl := rt.table(fz.Type(idx))
	if p := rt.cfg.Probe; p != nil {
		p.completed(a.placeID, tbl)
	}
	if tbl != nil {
		tbl.UpdateByID(int(a.placeID), finish-a.start)
	}
	for i := 0; i < a.place.Width; i++ {
		m := rt.cores[a.place.Leader+i]
		if m.cur != a {
			panic(fmt.Sprintf("simrt: core %d completing foreign assembly", m.id))
		}
		m.cur = nil
		m.state = stScheduled
		rt.engine.AtEvent(finish, m, evStep)
	}
	leader := a.place.Leader
	rt.putAssembly(a)
	for _, si := range fz.Succs(idx) {
		if rt.pending[si]--; rt.pending[si] == 0 {
			rt.wakeTask(makeTref(int(si), fz.High(int(si))), leader)
		}
	}
	if rt.remaining--; rt.remaining == 0 {
		rt.finished = true
		if p := rt.cfg.Probe; p != nil {
			p.flush(finish)
		}
	}
}

// ModelDuration returns the machine-model finish time for a cost on a
// place starting at start, drawing this runtime's usual execution noise
// from the place leader's RNG. Execution hooks use it for the CPU portion
// of tasks whose completion they control.
func (rt *Runtime) ModelDuration(c machine.Cost, pl topology.Place, start float64) float64 {
	return rt.model.Duration(c, pl, start, rt.drawJitter(pl.Leader))
}

// drawJitter samples the per-execution noise from the leader's RNG:
// multiplicative variance, continuous timer-resolution noise, and rare
// preemption outliers.
func (rt *Runtime) drawJitter(leader int) machine.Jitter {
	j := machine.NoJitter
	rng := rt.cores[leader].rng
	if rt.model.JitterRel > 0 {
		j.Mul = rng.Jitter(rt.model.JitterRel)
	}
	j.Add += float64(math.Abs(rng.NormFloat64()) * machine.TimerRes)
	if rng.Float64() < preemptProb {
		j.Add += preemptMin + float64((preemptMax-preemptMin)*rng.Float64())
	}
	return j
}

// Stats exposes per-core scheduler counters for diagnostics and tests.
type Stats struct {
	Steals, FailedSteals, Dispatches int64
}

// CoreStats returns the per-core scheduler counters.
func (rt *Runtime) CoreStats() []Stats {
	out := make([]Stats, len(rt.cores))
	for i, c := range rt.cores {
		out[i] = Stats{Steals: c.steals, FailedSteals: c.failedSteals, Dispatches: c.dispatches}
	}
	return out
}
