package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// writeTrace writes a trace through a ChromeWriter and decodes it.
func writeTrace(t *testing.T, write func(w *ChromeWriter)) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	w := NewChromeWriter(&buf)
	write(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	return out
}

// An empty trace is still a JSON array.
func TestChromeWriterEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewChromeWriter(&buf).Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[\n]\n" {
		t.Fatalf("empty trace = %q", got)
	}
}

// Events are written in call order: the writer keeps no model to sort.
func TestChromeWriterKeepsCallOrder(t *testing.T) {
	out := writeTrace(t, func(w *ChromeWriter) {
		w.Slice("c", 0, 0, 1, false, 2, 3)
		w.Slice("a", 0, 0, 1, false, 1, 2)
		w.Slice("b", 1, 1, 1, false, 2, 3)
	})
	if len(out) != 3 || out[0]["name"] != "c" || out[1]["name"] != "a" || out[2]["name"] != "b" {
		t.Fatalf("events not in call order: %v", out)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	out := writeTrace(t, func(w *ChromeWriter) {
		w.Slice("t1", 0, 0, 1, false, 0.0, 0.001)
		w.Slice("t0", 1, 0, 2, true, 0.001, 0.002)
	})
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
	if args := out[0]["args"].(map[string]any); args["place"] != "(C0,1)" || args["priority"] != "low" {
		t.Fatalf("args = %v", args)
	}
	// Duration in microseconds.
	if dur := out[1]["dur"].(float64); dur < 999 || dur > 1001 {
		t.Fatalf("dur = %v µs", dur)
	}
}

// Counter samples must stream as valid Chrome JSON: "C" events with
// per-series args next to the "X" slices, all in the one process row (a
// trace holds one cell, so there are no groups and no "M" rows).
func TestChromeTraceCountersAndGroups(t *testing.T) {
	out := writeTrace(t, func(w *ChromeWriter) {
		w.Slice("t", 0, 0, 1, false, 0, 0.001)
		w.Slice("t", 1, 1, 1, false, 0, 0.002)
		w.Counter("queue depth", 0.0005, []string{"wsq", "aq"}, 3, 1)
		w.Counter("ready tasks", 0.001, []string{"ready"}, 7)
	})
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
	if c0["name"] != "queue depth" || c0["cat"] != "counter" {
		t.Fatalf("counter = %v", c0)
	}
	args := c0["args"].(map[string]any)
	if len(args) != 2 || args["wsq"].(float64) != 3 || args["aq"].(float64) != 1 {
		t.Fatalf("counter args = %v", args)
	}
	if ts := c0["ts"].(float64); ts < 499 || ts > 501 {
		t.Fatalf("counter ts = %v µs", ts)
	}
	if args := byPhase["C"][1]["args"].(map[string]any); len(args) != 1 || args["ready"].(float64) != 7 {
		t.Fatalf("counter args = %v", args)
	}
}

// A counter value keeps every bit: it is written in the shortest form that
// reads back as the same float64.
func TestChromeWriterCounterRoundTripsValues(t *testing.T) {
	v := 0.1 + 0.2
	out := writeTrace(t, func(w *ChromeWriter) { w.Counter("core util", 1, []string{"c0"}, v) })
	if got := out[0]["args"].(map[string]any)["c0"].(float64); got != v {
		t.Fatalf("counter value %v read back as %v", v, got)
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

// The first write error sticks and Close returns it.
func TestChromeWriterReportsWriteError(t *testing.T) {
	boom := errors.New("disk full")
	w := NewChromeWriter(failWriter{boom})
	for range 5000 { // past the buffer, so a write reaches the writer
		w.Slice("t", 0, 0, 1, false, 0, 1)
		w.Counter("ready tasks", 0, []string{"ready"}, 1)
	}
	if err := w.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want %v", err, boom)
	}
}
