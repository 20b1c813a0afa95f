// Package trace writes schedules in the Chrome trace-event format
// (chrome://tracing, Perfetto), giving the same post-mortem visibility into
// schedules that XiTAO's tracing offers: one lane per core, one slice per
// task execution, with place and priority attached. Counter ("C") lanes —
// queue depths, ready-task counts, per-core utilization — render alongside
// the task slices. A ChromeWriter streams one cell's schedule straight from
// the records simrt's probe keeps; a SpanSet is the service's wall-clock
// timeline of one job.
package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
)

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

// jsonNameArgs renders the {"name": …} args of a metadata event.
func jsonNameArgs(name string) (json.RawMessage, error) {
	b, err := json.Marshal(name)
	if err != nil {
		return nil, err
	}
	return json.RawMessage(`{"name":` + string(b) + `}`), nil
}

// ChromeWriter streams a Chrome trace-event JSON array, one event at a
// time: each call writes its event at once, so a trace of any length costs
// the writer one buffer. Times are in seconds (virtual or wall,
// engine-dependent) and written in microseconds. The first write error
// sticks: later calls do nothing, and Close returns it. Load the output in
// chrome://tracing or https://ui.perfetto.dev.
type ChromeWriter struct {
	bw   *bufio.Writer
	n    int    // events written
	args []byte // scratch for one event's args
	err  error
}

// NewChromeWriter returns a writer of one trace to w.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	return &ChromeWriter{bw: bufio.NewWriter(w)}
}

// emit writes one event, unless an earlier write failed, and returns the
// writer's error.
func (w *ChromeWriter) emit(ce *chromeEvent) error {
	if w.err != nil {
		return w.err
	}
	b, err := json.Marshal(ce)
	if err != nil {
		w.err = err
		return err
	}
	if w.n == 0 {
		w.bw.WriteByte('[')
	} else {
		w.bw.WriteByte(',')
	}
	w.bw.WriteByte('\n')
	_, w.err = w.bw.Write(b)
	w.n++
	return w.err
}

// Slice writes one task execution drawn in core's lane: the task labelled
// label ran on the place of width cores led by leader, from start to end;
// high marks a critical task.
func (w *ChromeWriter) Slice(label string, core, leader, width int, high bool, start, end float64) {
	prio := `"low"}`
	if high {
		prio = `"high"}`
	}
	a := append(w.args[:0], `{"place":"(C`...)
	a = strconv.AppendInt(a, int64(leader), 10)
	a = append(a, ',')
	a = strconv.AppendInt(a, int64(width), 10)
	a = append(a, `)","priority":`...)
	w.args = append(a, prio...)
	w.emit(&chromeEvent{Name: label, Cat: "task", Ph: "X", Ts: start * 1e6, Dur: (end - start) * 1e6, Tid: core, Args: w.args})
}

// Counter writes one sample of the counter lane name at time at: series
// keys[i] holds values[i], in display order. Successive samples of a lane
// render as a stacked area chart.
func (w *ChromeWriter) Counter(name string, at float64, keys []string, values ...float64) {
	a := append(w.args[:0], '{')
	for i, v := range values {
		if i > 0 {
			a = append(a, ',')
		}
		a = strconv.AppendQuote(a, keys[i])
		a = append(a, ':')
		a = strconv.AppendFloat(a, v, 'g', -1, 64)
	}
	w.args = append(a, '}')
	w.emit(&chromeEvent{Name: name, Cat: "counter", Ph: "C", Ts: at * 1e6, Args: w.args})
}

// Close ends the array and flushes it, returning the first error of the
// trace.
func (w *ChromeWriter) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.n == 0 {
		w.bw.WriteByte('[')
	}
	w.bw.WriteString("\n]\n")
	return w.bw.Flush()
}
