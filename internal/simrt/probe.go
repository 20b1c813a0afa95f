package simrt

// Probe is the runtime's one observer of a run. It observes the existing
// decision points of the execution protocol — steals, queue transitions,
// completions and the PTT updates they make — and never influences them: it
// draws no randomness, schedules no events, and reads virtual time only at
// boundaries the runtime already crossed, so a probed run is bit-identical
// to an unprobed one (the fingerprint gates in internal/scenario prove it
// per policy × workload kind). Its records are the PTT's prediction for
// each entry of the runtime's completion record (metrics.Record), one queue
// sample per queue-state transition, and the victim→thief steal counts. At
// run completion it derives a metrics.Sched aggregate from them and the
// completion record (read through Sched), and after the run
// WriteChromeTrace writes them as a Chrome trace, reading the records in
// place.
//
// A nil probe is the default and costs one pointer check per hook site;
// the alloc gates in alloc_test.go hold the disabled hot path at zero
// allocations.

import (
	"cmp"
	"io"
	"math"
	"slices"
	"strconv"

	"dynasym/internal/metrics"
	"dynasym/internal/ptt"
	"dynasym/internal/trace"
)

// queueSample is the queue state after one transition: the total ready
// tasks across all WSQs and committed entries across all AQs at a virtual
// time. It holds until the next sample, or to the makespan.
type queueSample struct {
	At               float64
	Ready, Committed int32
}

// Probe records scheduler introspection for one runtime. Attach it via
// Config.Probe; New/Reset size it to the platform. Not safe for concurrent
// use — it observes a single runtime on the engine's goroutine.
type Probe struct {
	rt *Runtime // the runtime observed: its completion record is the slices
	// sched is the aggregate the run flushed (nil until it finishes).
	sched *metrics.Sched

	// predicted[i] is the PTT's estimate for the place of the completion
	// record's entry i before that completion updated it, or 0 when there
	// is none. Every PTT number the probe reports is a view of the two.
	predicted []float64
	// stealLow/stealHigh are cores×cores victim-major steal counts.
	stealLow  []int64
	stealHigh []int64

	// ready/committed are the current queue totals; samples records the
	// state after every transition, uncapped. Every queue number the probe
	// reports is a view of samples.
	ready, committed int
	samples          []queueSample
}

// NewProbe returns an empty probe; attaching it to a runtime sizes it.
func NewProbe() *Probe { return &Probe{} }

// reset clears the probe for a run of rt, reusing its storage.
func (p *Probe) reset(rt *Runtime) {
	n := len(rt.cores)
	p.rt, p.sched = rt, nil
	p.predicted = p.predicted[:0]
	p.stealLow = slices.Grow(p.stealLow[:0], n*n)[:n*n]
	p.stealHigh = slices.Grow(p.stealHigh[:0], n*n)[:n*n]
	clear(p.stealLow)
	clear(p.stealHigh)
	p.ready, p.committed = 0, 0
	p.samples = p.samples[:0]
}

// stole records one successful steal in the victim→thief matrix cell for
// the task's priority class.
func (p *Probe) stole(victim, thief int, high bool) {
	i := victim*len(p.rt.cores) + thief
	if high {
		p.stealHigh[i]++
	} else {
		p.stealLow[i]++
	}
}

// queueDelta records one queue-state transition at virtual time at:
// dReady ready tasks entered/left WSQs, dCommitted entries entered/left
// AQs.
func (p *Probe) queueDelta(at float64, dReady, dCommitted int) {
	p.ready += dReady
	p.committed += dCommitted
	p.samples = append(p.samples, queueSample{At: at, Ready: int32(p.ready), Committed: int32(p.committed)})
}

// completed records the estimate of the policy's PTT, tbl (nil for a policy
// without one), for the place of the completion just recorded.
func (p *Probe) completed(placeID int32, tbl *ptt.Table) {
	// The table's estimate before this observation folds in is the
	// prediction the dispatch decision would have seen.
	predicted := 0.0
	if tbl != nil {
		predicted = tbl.ValueByID(int(placeID))
	}
	p.predicted = append(p.predicted, predicted)
}

// pttErr returns completion i's relative PTT error
// |predicted−actual|/actual, and false when the table made no prediction for
// it (no PTT, a place not yet measured) or the completion has no length.
func (p *Probe) pttErr(done []metrics.Completion, i int) (float64, bool) {
	predicted, actual := p.predicted[i], done[i].Finish-done[i].Start
	if actual <= 0 || predicted <= 0 {
		return 0, false
	}
	return math.Abs(predicted-actual) / actual, true
}

// Sched returns the aggregate of the run the probe observed, or nil until
// that run finishes. The value is the caller's: the next run flushes a new
// one.
func (p *Probe) Sched() *metrics.Sched { return p.sched }

// flush derives the run's mergeable Sched aggregate at its completion:
// busy is the completion record's per-core kernel time; the dispatch and
// steal windows are the cores' dispatch and successful-steal counts times
// their fixed costs; idle is the residual of the makespan after all three.
// The queue numbers come from one pass over the queue record.
func (p *Probe) flush(makespan float64) {
	busy, done, nc := p.rt.coll.CoreBusy(), p.rt.coll.Completions(), len(p.rt.cores)
	s := &metrics.Sched{
		Busy:         busy,
		Dispatch:     make([]float64, nc),
		Steal:        make([]float64, nc),
		Idle:         make([]float64, nc),
		Span:         makespan,
		QueueSamples: int64(len(p.samples)),
	}
	// Each state holds from its transition to the next; the queues start
	// empty at time 0, and the last state holds to the makespan.
	var last queueSample
	for _, q := range p.samples {
		if q.At > last.At {
			dt := q.At - last.At
			s.ReadySec += float64(float64(last.Ready) * dt)
			s.CommittedSec += float64(float64(last.Committed) * dt)
		}
		last = q
		s.MaxReady = max(s.MaxReady, int(q.Ready))
		s.MaxCommitted = max(s.MaxCommitted, int(q.Committed))
	}
	if makespan > last.At {
		dt := makespan - last.At
		s.ReadySec += float64(float64(last.Ready) * dt)
		s.CommittedSec += float64(float64(last.Committed) * dt)
	}
	for i, c := range p.rt.cores {
		s.Dispatch[i] = float64(c.dispatches) * dispatchCost
		s.Steal[i] = float64(c.steals) * stealCost
		if idle := makespan - busy[i] - s.Dispatch[i] - s.Steal[i]; idle > 0 {
			s.Idle[i] = idle
		}
	}
	for v := 0; v < nc; v++ {
		for t := 0; t < nc; t++ {
			lo, hi := p.stealLow[v*nc+t], p.stealHigh[v*nc+t]
			if lo != 0 || hi != 0 {
				s.StealMatrix = append(s.StealMatrix, metrics.StealEdge{Victim: v, Thief: t, Low: lo, High: hi})
			}
		}
	}
	// Tail error: the run's last quarter of predictions, the "has the
	// table converged" view the paper's Figure 5 narrative builds on.
	var n int64
	for i := range done {
		if _, ok := p.pttErr(done, i); ok {
			n++
		}
	}
	for i := range done {
		if e, ok := p.pttErr(done, i); ok {
			if s.PTTSamples >= n-n/4 {
				s.PTTTailSamples++
				s.PTTTailErrSum += e
			}
			s.PTTSamples++
			s.PTTErrSum += e
		}
	}
	p.sched = s
}

// utilWindows is the resolution of the trace's "core util" lane.
const utilWindows = 160

// WriteChromeTrace writes the run as a Chrome trace to w, straight from the
// records: one task slice per member core of every completion (label and
// priority from the frozen graph, cores from the place table) in start
// order, equal starts in completion order; the "queue depth" (wsq/aq series)
// and "ready tasks" lanes interleaved per queue sample; the "ptt rel err"
// lane (one point per completion the PTT predicted); and the "core util"
// lane, each core's busy share of utilWindows windows over the makespan. It
// returns the number of task slices written. Call it before the runtime's
// next Reset.
func (p *Probe) WriteChromeTrace(w io.Writer) (int, error) {
	done, places, fz := p.rt.coll.Completions(), p.rt.topo.Places(), p.rt.graph
	order := make([]int32, len(done))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(done[a].Start, done[b].Start) })
	cw := trace.NewChromeWriter(w)
	n, cores := 0, 0
	for _, i := range order {
		c, task := &done[i], int(done[i].Task)
		pl, label, high := places[c.Place], fz.Task(task).Label, fz.High(task)
		for k := range pl.Width {
			cw.Slice(label, pl.Leader+k, pl.Leader, pl.Width, high, c.Start, c.Finish)
		}
		n += pl.Width
		cores = max(cores, pl.Leader+pl.Width)
	}
	queueKeys, readyKeys := []string{"wsq", "aq"}, []string{"ready"}
	for _, s := range p.samples {
		cw.Counter("queue depth", s.At, queueKeys, float64(s.Ready), float64(s.Committed))
		cw.Counter("ready tasks", s.At, readyKeys, float64(s.Ready))
	}
	errKeys := []string{"err"}
	for i := range done {
		if e, ok := p.pttErr(done, i); ok {
			cw.Counter("ptt rel err", done[i].Finish, errKeys, e)
		}
	}
	if p.sched != nil && p.sched.Span > 0 && cores > 0 {
		p.writeUtil(cw, order, cores)
	}
	return n, cw.Close()
}

// writeUtil writes the "core util" lane over [0, makespan] for the cores
// below cores: each window's busy time per core, summed over the record in
// the start order of the slices, divided by the window's length.
func (p *Probe) writeUtil(cw *trace.ChromeWriter, order []int32, cores int) {
	done, places := p.rt.coll.Completions(), p.rt.topo.Places()
	dt := p.sched.Span / utilWindows
	busy := make([]float64, utilWindows*cores)
	for _, i := range order {
		c, pl := &done[i], places[done[i].Place]
		if c.Finish <= c.Start {
			continue
		}
		w0, w1 := int(c.Start/dt), min(int(c.Finish/dt), utilWindows-1)
		for w := w0; w <= w1 && w >= 0; w++ {
			lo, hi := max(float64(w)*dt, c.Start), min(float64(w+1)*dt, c.Finish)
			if hi > lo {
				for k := range pl.Width {
					busy[w*cores+pl.Leader+k] += hi - lo
				}
			}
		}
	}
	keys := make([]string, cores)
	for k := range keys {
		keys[k] = "c" + strconv.Itoa(k)
	}
	for w := range utilWindows {
		row := busy[w*cores : (w+1)*cores]
		for k := range row {
			row[k] /= dt
		}
		cw.Counter("core util", float64(w)*dt, keys, row...)
	}
}
