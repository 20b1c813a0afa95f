package trace

// Service-level spans: where a ChromeWriter draws simulated task
// executions on numbered cores, SpanSet captures wall-clock operations of the job
// service itself — queueing, shard dispatch, wire time, remote and local
// cell execution, merging — on *named* lanes ("job", "local #0",
// "peer http://… #1 w2"). The export reuses the same Chrome trace-event
// writer, adding thread_name metadata so Perfetto labels each lane, which
// is what turns a two-node chaos run into a readable picture: one lane
// per backend, one slice per shard, the killed peer's shards visibly
// re-dispatched onto the survivors' lanes.

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one service-level slice on a named lane. Start and End are
// offsets from the span set's origin (the job's submission instant).
type Span struct {
	// Name is the slice label ("shard 3", "simulate DAM-C at P4 (rep 1)").
	Name string
	// Cat classifies the slice: "job", "dispatch", "wire", "simulate",
	// "merge".
	Cat string
	// Lane names the track the slice is drawn in; lanes are created on
	// first use, in first-use order.
	Lane string
	// Start and End are offsets from the set's origin.
	Start, End time.Duration
	// Args are optional key/value annotations shown in the slice details.
	Args map[string]string
}

// SpanSet accumulates spans, bounded by max (0 = unlimited): a runaway
// grid cannot grow a job's trace without bound — past the cap, spans are
// dropped and counted. It is safe for concurrent use and cheap when nil:
// all methods are nil-tolerant.
type SpanSet struct {
	mu      sync.Mutex
	spans   []Span
	max     int
	dropped int64
}

// NewSpanSet returns an empty span set retaining at most max spans
// (0 = unlimited).
func NewSpanSet(max int) *SpanSet { return &SpanSet{max: max} }

// Add records one span. Safe on a nil set.
func (s *SpanSet) Add(sp Span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.max > 0 && len(s.spans) >= s.max {
		s.dropped++
	} else {
		s.spans = append(s.spans, sp)
	}
	s.mu.Unlock()
}

// Spans returns a copy of the recorded spans sorted by start offset
// (ties broken by lane then name, so exports are deterministic).
func (s *SpanSet) Spans() []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := append([]Span(nil), s.spans...)
	s.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Lane != out[j].Lane {
			return out[i].Lane < out[j].Lane
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Dropped returns how many spans the cap discarded.
func (s *SpanSet) Dropped() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// WriteChromeTrace writes the spans as a Chrome trace-event JSON array:
// one thread per lane (named via thread_name metadata), one complete
// event per span. Load it in https://ui.perfetto.dev or chrome://tracing.
func (s *SpanSet) WriteChromeTrace(w io.Writer) error {
	spans := s.Spans()
	lanes := make(map[string]int)
	var laneNames []string
	for _, sp := range spans {
		if _, ok := lanes[sp.Lane]; !ok {
			lanes[sp.Lane] = len(laneNames)
			laneNames = append(laneNames, sp.Lane)
		}
	}
	cw := NewChromeWriter(w)
	for i, name := range laneNames {
		args, err := jsonNameArgs(name)
		if err != nil {
			return err
		}
		if err := cw.emit(&chromeEvent{Name: "thread_name", Ph: "M", Tid: i, Args: args}); err != nil {
			return err
		}
	}
	for _, sp := range spans {
		cat := sp.Cat
		if cat == "" {
			cat = "span"
		}
		var args json.RawMessage
		if len(sp.Args) > 0 {
			b, err := json.Marshal(sp.Args)
			if err != nil {
				return err
			}
			args = b
		}
		if err := cw.emit(&chromeEvent{
			Name: sp.Name,
			Cat:  cat,
			Ph:   "X",
			Ts:   float64(sp.Start) / float64(time.Microsecond),
			Dur:  float64(sp.End-sp.Start) / float64(time.Microsecond),
			Tid:  lanes[sp.Lane],
			Args: args,
		}); err != nil {
			return err
		}
	}
	return cw.Close()
}
