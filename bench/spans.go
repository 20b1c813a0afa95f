package main

import (
	"io"
	"strconv"
	"time"

	"dynasym/internal/trace"
)

// span is one timed call into a layer: which layer, what was called, for
// which job, under which other span.
type span struct {
	layer  string // module name: "scenario", "service", "loadgen", ...
	name   string
	job    int
	parent int // index of the enclosing span, -1 for a root
	start  time.Duration
	end    time.Duration
}

// spanRec keeps spans in memory for one goroutine (the ledger runs its legs
// sequentially) and writes them out once, when the run ends. A nil recorder
// records nothing, which is the untraced side of the overhead comparison.
type spanRec struct {
	t0    time.Time
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// begin opens a span and returns its index for end (and for children's
// parent).
func (r *spanRec) begin(layer, name string, job, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{layer: layer, name: name, job: job, parent: parent, start: time.Since(r.t0)})
	return len(r.spans) - 1
}

func (r *spanRec) end(i int) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].end = time.Since(r.t0)
}

// selfTime is a span's duration minus the part of it its direct children
// cover (overlapping children are not double-counted).
func selfTime(spans []span, i int) time.Duration {
	sp := spans[i]
	covered := time.Duration(0)
	cursor := sp.start
	// Children were appended in start order (one goroutine), so one
	// forward pass over them merges overlaps.
	for _, c := range spans {
		if c.parent != i {
			continue
		}
		s, e := max(c.start, cursor), min(c.end, sp.end)
		if e > s {
			covered += e - s
			cursor = e
		}
	}
	return sp.end - sp.start - covered
}

// writeChrome renders the spans through internal/trace as a Chrome trace:
// one lane per layer, the job and parent in each slice's args.
func (r *spanRec) writeChrome(w io.Writer) error {
	set := trace.NewSpanSet(0)
	for i, sp := range r.spans {
		set.Add(trace.Span{
			Name: sp.name, Cat: sp.layer, Lane: sp.layer,
			Start: sp.start, End: sp.end,
			Args: map[string]string{
				"job":    strconv.Itoa(sp.job),
				"span":   strconv.Itoa(i),
				"parent": strconv.Itoa(sp.parent),
			},
		})
	}
	return set.WriteChromeTrace(w)
}
