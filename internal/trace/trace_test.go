package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Add(Event{Label: "x"})
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder misbehaved")
	}
}

func TestEventsSortedByStart(t *testing.T) {
	r := New()
	r.Add(Event{Label: "b", Start: 2, End: 3})
	r.Add(Event{Label: "a", Start: 1, End: 2})
	evs := r.Events()
	if evs[0].Label != "a" || evs[1].Label != "b" {
		t.Fatalf("events not sorted: %+v", evs)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	r := New()
	r.Add(Event{Label: "t0", Core: 1, Start: 0.001, End: 0.002, Leader: 0, Width: 2, High: true})
	r.Add(Event{Label: "t1", Core: 0, Start: 0.0, End: 0.001, Leader: 0, Width: 1})
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("%d events", len(out))
	}
	if out[1]["name"] != "t0" || out[1]["ph"] != "X" {
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

func TestUtilization(t *testing.T) {
	r := New()
	r.Add(Event{Core: 0, Start: 0, End: 1})
	r.Add(Event{Core: 0, Start: 1, End: 2})
	r.Add(Event{Core: 1, Start: 0, End: 1})
	u := r.Utilization(4)
	if u[0] != 0.5 || u[1] != 0.25 {
		t.Fatalf("utilization = %v", u)
	}
	if r.Utilization(0) != nil {
		t.Fatal("zero horizon should return nil")
	}
}

// The lazy sort must invalidate on Add: an event added after a read still
// lands in order on the next read.
func TestLazySortInvalidatesOnAdd(t *testing.T) {
	r := New()
	r.Add(Event{Label: "c", Start: 3, End: 4})
	r.Add(Event{Label: "a", Start: 1, End: 2})
	if evs := r.Events(); evs[0].Label != "a" {
		t.Fatalf("first read unsorted: %+v", evs)
	}
	r.Add(Event{Label: "b", Start: 2, End: 3})
	evs := r.Events()
	if evs[0].Label != "a" || evs[1].Label != "b" || evs[2].Label != "c" {
		t.Fatalf("post-Add read unsorted: %+v", evs)
	}
	// Returned slices are copies: mutating one must not corrupt the next.
	evs[0].Label = "mutated"
	if r.Events()[0].Label != "a" {
		t.Fatal("Events returned an aliased slice")
	}
}

// Counter samples must stream as valid Chrome JSON: "C" events with
// per-series args next to the "X" slices, all in the one process row (a
// recorder holds one cell, so there are no groups and no "M" rows).
func TestChromeTraceCountersAndGroups(t *testing.T) {
	r := New()
	r.Add(Event{Label: "t", Core: 0, Start: 0, End: 0.001})
	r.Add(Event{Label: "t", Core: 1, Start: 0, End: 0.002})
	r.AddCounter(CounterPoint{Name: "queue depth", At: 0.0005, Series: []CounterValue{
		{Key: "wsq", Value: 3}, {Key: "aq", Value: 1},
	}})
	r.AddCounter(CounterPoint{Name: "ready tasks", At: 0.001, Series: []CounterValue{
		{Key: "ready", Value: 7},
	}})
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
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

// AddUtilCounters derives the per-core utilization lane from the task
// slices.
func TestAddUtilCounters(t *testing.T) {
	r := New()
	r.Add(Event{Core: 0, Start: 0, End: 1})
	r.Add(Event{Core: 1, Start: 0, End: 0.5})
	r.AddUtilCounters(1)
	var util []CounterPoint
	for _, cp := range r.Counters() {
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

func TestConcurrentAdd(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Add(Event{Core: i % 4, Start: float64(i), End: float64(i) + 1})
			}
		}()
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("len = %d", r.Len())
	}
}
