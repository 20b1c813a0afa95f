// Package trace records per-task execution events and exports them in the
// Chrome trace-event format (chrome://tracing, Perfetto), giving the same
// post-mortem visibility into schedules that XiTAO's tracing offers: one
// lane per core, one slice per task execution, with place, priority and
// type attached. Counter ("C") lanes — queue depths, ready-task counts,
// per-core utilization — render alongside the task slices. One recorder
// holds one cell's schedule.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Event is one recorded task execution.
type Event struct {
	// Label is the task label.
	Label string
	// Category classifies the event ("task", "comm", …).
	Category string
	// Core is the lane the event is drawn in (the executing core).
	Core int
	// Start and End are in seconds (virtual or wall, engine-dependent).
	Start, End float64
	// Leader and Width describe the execution place.
	Leader, Width int
	// High marks critical tasks.
	High bool
}

// CounterPoint is one sample of a Chrome counter ("C") lane: a named lane
// holding one or more series values at a single timestamp. Successive
// points of the same lane render as a stacked area chart.
type CounterPoint struct {
	// Name is the counter lane's name ("queue depth", "core util", …).
	Name string
	// At is the sample time in seconds.
	At float64
	// Series holds the lane's values at At, in stable display order.
	Series []CounterValue
}

// CounterValue is one named series value of a counter sample.
type CounterValue struct {
	Key   string
	Value float64
}

// Recorder accumulates events. It is safe for concurrent use and cheap
// when nil: all methods are nil-tolerant so runtimes can call them
// unconditionally.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	// sorted tracks whether events is currently ordered by start time.
	// Sorting happens lazily in Events — Add only invalidates — so bursts
	// of reads (Utilization, writers) sort at most once.
	sorted   bool
	counters []CounterPoint
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Add records one event. Safe on a nil recorder.
func (r *Recorder) Add(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.sorted = false
	r.mu.Unlock()
}

// AddCounter records one counter sample. Safe on a nil recorder.
func (r *Recorder) AddCounter(cp CounterPoint) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters = append(r.counters, cp)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events sorted by start time. The
// sort is stable, so equal-start events keep their insertion order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.sorted {
		sort.SliceStable(r.events, func(i, j int) bool { return r.events[i].Start < r.events[j].Start })
		r.sorted = true
	}
	return append([]Event(nil), r.events...)
}

// Counters returns a copy of the recorded counter samples in insertion
// order (recorders sample monotonically, so this is time order per lane).
func (r *Recorder) Counters() []CounterPoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]CounterPoint(nil), r.counters...)
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// chromeEvent is the trace-event JSON schema (complete events ph "X",
// counters ph "C", metadata ph "M"); everything renders in process row 0. Args is pre-rendered JSON so the
// writer emits events one at a time without per-event map allocation.
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat,omitempty"`
	Ph   string          `json:"ph"`
	Ts   float64         `json:"ts"`            // microseconds
	Dur  float64         `json:"dur,omitempty"` // microseconds
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Args json.RawMessage `json:"args,omitempty"`
}

// chromeWriter streams chromeEvents as one JSON array, one event at a
// time — traces with hundreds of thousands of events never materialize an
// encoder-side copy.
type chromeWriter struct {
	bw *bufio.Writer
	n  int
}

func newChromeWriter(w io.Writer) *chromeWriter {
	return &chromeWriter{bw: bufio.NewWriter(w)}
}

func (cw *chromeWriter) emit(ce *chromeEvent) error {
	b, err := json.Marshal(ce)
	if err != nil {
		return err
	}
	if cw.n == 0 {
		cw.bw.WriteByte('[')
	} else {
		cw.bw.WriteByte(',')
	}
	cw.bw.WriteByte('\n')
	_, err = cw.bw.Write(b)
	cw.n++
	return err
}

func (cw *chromeWriter) close() error {
	if cw.n == 0 {
		cw.bw.WriteByte('[')
	}
	cw.bw.WriteString("\n]\n")
	return cw.bw.Flush()
}

// jsonNameArgs renders the {"name": …} args of a metadata event.
func jsonNameArgs(name string) (json.RawMessage, error) {
	b, err := json.Marshal(name)
	if err != nil {
		return nil, err
	}
	return json.RawMessage(`{"name":` + string(b) + `}`), nil
}

// WriteChromeTrace writes the events and counter lanes as a Chrome
// trace-event JSON array. Events are streamed one at a time — a large DAG
// sweep's hundred-thousand-event trace never materializes a second copy in
// encoder form. Load the output in chrome://tracing or
// https://ui.perfetto.dev.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := r.Events()
	counters := r.Counters()
	cw := newChromeWriter(w)
	for i := range events {
		ev := &events[i]
		cat := ev.Category
		if cat == "" {
			cat = "task"
		}
		prio := "low"
		if ev.High {
			prio = "high"
		}
		if err := cw.emit(&chromeEvent{
			Name: ev.Label,
			Cat:  cat,
			Ph:   "X",
			Ts:   ev.Start * 1e6,
			Dur:  (ev.End - ev.Start) * 1e6,
			Tid:  ev.Core,
			Args: json.RawMessage(fmt.Sprintf(`{"place":"(C%d,%d)","priority":%q}`, ev.Leader, ev.Width, prio)),
		}); err != nil {
			return err
		}
	}
	var args []byte
	for i := range counters {
		cp := &counters[i]
		args = args[:0]
		args = append(args, '{')
		for si, sv := range cp.Series {
			if si > 0 {
				args = append(args, ',')
			}
			args = strconv.AppendQuote(args, sv.Key)
			args = append(args, ':')
			args = strconv.AppendFloat(args, sv.Value, 'g', -1, 64)
		}
		args = append(args, '}')
		if err := cw.emit(&chromeEvent{
			Name: cp.Name,
			Cat:  "counter",
			Ph:   "C",
			Ts:   cp.At * 1e6,
			Args: json.RawMessage(append([]byte(nil), args...)),
		}); err != nil {
			return err
		}
	}
	return cw.close()
}

// utilWindows is the resolution of the derived per-core utilization lane.
const utilWindows = 160

// AddUtilCounters derives a windowed per-core utilization counter lane
// ("core util", one series per core) from the recorded task events, over the
// horizon [0, horizon]. Call it after the run, before writing the trace.
func (r *Recorder) AddUtilCounters(horizon float64) {
	if r == nil || horizon <= 0 {
		return
	}
	events := r.Events()
	maxCore := -1
	for _, ev := range events {
		if ev.Core > maxCore {
			maxCore = ev.Core
		}
	}
	if maxCore < 0 {
		return
	}
	dt := horizon / utilWindows
	busy := make([]float64, utilWindows*(maxCore+1))
	for _, ev := range events {
		if ev.End <= ev.Start {
			continue
		}
		w0 := int(ev.Start / dt)
		w1 := int(ev.End / dt)
		if w1 >= utilWindows {
			w1 = utilWindows - 1
		}
		for w := w0; w <= w1 && w >= 0; w++ {
			lo, hi := float64(w)*dt, float64(w+1)*dt
			if ev.Start > lo {
				lo = ev.Start
			}
			if ev.End < hi {
				hi = ev.End
			}
			if hi > lo {
				busy[w*(maxCore+1)+ev.Core] += hi - lo
			}
		}
	}
	for w := 0; w < utilWindows; w++ {
		series := make([]CounterValue, maxCore+1)
		for c := 0; c <= maxCore; c++ {
			series[c] = CounterValue{Key: "c" + strconv.Itoa(c), Value: busy[w*(maxCore+1)+c] / dt}
		}
		r.AddCounter(CounterPoint{Name: "core util", At: float64(w) * dt, Series: series})
	}
}

// Utilization returns per-core busy fractions over [0, horizon]; cores
// beyond the observed maximum are omitted.
func (r *Recorder) Utilization(horizon float64) map[int]float64 {
	if horizon <= 0 {
		return nil
	}
	busy := map[int]float64{}
	for _, ev := range r.Events() {
		busy[ev.Core] += ev.End - ev.Start
	}
	for c := range busy {
		busy[c] /= horizon
	}
	return busy
}
