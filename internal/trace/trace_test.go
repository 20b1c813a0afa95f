package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// NewSchedule sorts the events by start, stably: equal starts keep the
// order they were handed in (a probe hands them in completion order).
func TestEventsSortedByStart(t *testing.T) {
	s := NewSchedule([]Event{
		{Label: "c", Start: 2, End: 3},
		{Label: "a", Start: 1, End: 2},
		{Label: "b", Core: 1, Start: 2, End: 3},
	}, nil, 0)
	evs := s.Events
	if evs[0].Label != "a" || evs[1].Label != "c" || evs[2].Label != "b" {
		t.Fatalf("events not sorted stably by start: %+v", evs)
	}
	if len(s.Counters) != 0 {
		t.Fatalf("no horizon, yet %d counter samples", len(s.Counters))
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	s := NewSchedule([]Event{
		{Label: "t0", Core: 1, Start: 0.001, End: 0.002, Leader: 0, Width: 2, High: true},
		{Label: "t1", Core: 0, Start: 0.0, End: 0.001, Leader: 0, Width: 1},
	}, nil, 0)
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("%d events", len(out))
	}
	if out[1]["name"] != "t0" || out[1]["ph"] != "X" || out[1]["cat"] != "task" {
		t.Fatalf("event = %v", out[1])
	}
	if out[1]["tid"].(float64) != 1 {
		t.Fatal("tid should be the core id")
	}
	args := out[1]["args"].(map[string]any)
	if args["place"] != "(C0,2)" || args["priority"] != "high" {
		t.Fatalf("args = %v", args)
	}
	// Duration in microseconds.
	if dur := out[1]["dur"].(float64); dur < 999 || dur > 1001 {
		t.Fatalf("dur = %v µs", dur)
	}
}

// Counter samples must stream as valid Chrome JSON: "C" events with
// per-series args next to the "X" slices, all in the one process row (a
// schedule holds one cell, so there are no groups and no "M" rows).
func TestChromeTraceCountersAndGroups(t *testing.T) {
	s := NewSchedule([]Event{
		{Label: "t", Core: 0, Start: 0, End: 0.001},
		{Label: "t", Core: 1, Start: 0, End: 0.002},
	}, []CounterPoint{
		{Name: "queue depth", At: 0.0005, Series: []CounterValue{{Key: "wsq", Value: 3}, {Key: "aq", Value: 1}}},
		{Name: "ready tasks", At: 0.001, Series: []CounterValue{{Key: "ready", Value: 7}}},
	}, 0)
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	byPhase := map[string][]map[string]any{}
	for _, ev := range out {
		ph := ev["ph"].(string)
		byPhase[ph] = append(byPhase[ph], ev)
		if pid, ok := ev["pid"].(float64); !ok || pid != 0 {
			t.Fatalf("event outside process row 0: %v", ev)
		}
	}
	if len(byPhase["M"]) != 0 || len(byPhase["X"]) != 2 || len(byPhase["C"]) != 2 {
		t.Fatalf("phases: M=%d X=%d C=%d, want 0, 2, 2", len(byPhase["M"]), len(byPhase["X"]), len(byPhase["C"]))
	}
	c0 := byPhase["C"][0]
	if c0["name"] != "queue depth" {
		t.Fatalf("counter = %v", c0)
	}
	args := c0["args"].(map[string]any)
	if args["wsq"].(float64) != 3 || args["aq"].(float64) != 1 {
		t.Fatalf("counter args = %v", args)
	}
	if ts := c0["ts"].(float64); ts < 499 || ts > 501 {
		t.Fatalf("counter ts = %v µs", ts)
	}
}

// NewSchedule derives the per-core utilization lane from the task slices,
// after the counters it was handed.
func TestAddUtilCounters(t *testing.T) {
	s := NewSchedule([]Event{
		{Core: 0, Start: 0, End: 1},
		{Core: 1, Start: 0, End: 0.5},
	}, []CounterPoint{{Name: "ready tasks", At: 0.5, Series: []CounterValue{{Key: "ready", Value: 1}}}}, 1)
	if s.Counters[0].Name != "ready tasks" {
		t.Fatalf("first counter %q, want the handed-in lane first", s.Counters[0].Name)
	}
	var util []CounterPoint
	for _, cp := range s.Counters {
		if cp.Name == "core util" {
			util = append(util, cp)
		}
	}
	if len(util) == 0 {
		t.Fatal("no utilization lane derived")
	}
	// Core 0 is busy the whole horizon: every window's c0 series is 1.
	for _, cp := range util {
		for _, cv := range cp.Series {
			if cv.Key == "c0" && (cv.Value < 0.99 || cv.Value > 1.01) {
				t.Fatalf("c0 utilization %v at %v, want 1", cv.Value, cp.At)
			}
		}
	}
}
