package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSpanSetNilSafe(t *testing.T) {
	var s *SpanSet
	s.Add(Span{Name: "x"})
	if s.Dropped() != 0 || s.Spans() != nil {
		t.Fatal("nil SpanSet must be inert")
	}
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestSpanSetCapDrops(t *testing.T) {
	s := NewSpanSet(2)
	for i := 0; i < 5; i++ {
		s.Add(Span{Name: "s", Start: time.Duration(i)})
	}
	if n := len(s.Spans()); n != 2 {
		t.Fatalf("retained %d spans, want 2", n)
	}
	if s.Dropped() != 3 {
		t.Fatalf("dropped %d spans, want 3", s.Dropped())
	}
}

func TestSpansSortedDeterministically(t *testing.T) {
	s := NewSpanSet(0)
	s.Add(Span{Name: "b", Lane: "l2", Start: 10 * time.Millisecond})
	s.Add(Span{Name: "a", Lane: "l1", Start: 10 * time.Millisecond})
	s.Add(Span{Name: "c", Lane: "l1", Start: 5 * time.Millisecond})
	got := s.Spans()
	want := []string{"c", "a", "b"}
	for i, sp := range got {
		if sp.Name != want[i] {
			t.Fatalf("span order %v, want c,a,b", got)
		}
	}
}

func TestWriteChromeTraceSpans(t *testing.T) {
	s := NewSpanSet(0)
	s.Add(Span{Name: "queued", Cat: "job", Lane: "job", Start: 0, End: 2 * time.Millisecond})
	s.Add(Span{Name: "shard 0", Cat: "dispatch", Lane: "local #0",
		Start: 2 * time.Millisecond, End: 9 * time.Millisecond,
		Args: map[string]string{"cells": "4"}})
	s.Add(Span{Name: "shard 1", Cat: "dispatch", Lane: "peer http://w #0",
		Start: 2 * time.Millisecond, End: 7 * time.Millisecond})

	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// 3 lanes → 3 thread_name metadata events, then 3 slices.
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6:\n%s", len(events), buf.String())
	}
	metaNames := map[string]bool{}
	tidByLane := map[string]float64{}
	for _, ev := range events[:3] {
		if ev["ph"] != "M" || ev["name"] != "thread_name" {
			t.Fatalf("expected thread_name metadata first, got %v", ev)
		}
		lane := ev["args"].(map[string]any)["name"].(string)
		metaNames[lane] = true
		tidByLane[lane] = ev["tid"].(float64)
	}
	for _, lane := range []string{"job", "local #0", "peer http://w #0"} {
		if !metaNames[lane] {
			t.Errorf("lane %q missing a thread_name event", lane)
		}
	}
	slice := events[4] // "shard 0", sorted after "queued"
	if slice["name"] != "shard 0" || slice["ph"] != "X" {
		t.Fatalf("unexpected slice %v", slice)
	}
	if slice["ts"].(float64) != 2000 || slice["dur"].(float64) != 7000 {
		t.Fatalf("shard 0 ts/dur = %v/%v, want 2000/7000 µs", slice["ts"], slice["dur"])
	}
	if slice["tid"].(float64) != tidByLane["local #0"] {
		t.Fatal("slice not drawn in its lane's tid")
	}
	if slice["args"].(map[string]any)["cells"] != "4" {
		t.Fatal("slice args lost")
	}
}

func TestSpanSetConcurrent(t *testing.T) {
	s := NewSpanSet(0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Add(Span{Name: "s", Lane: "l", Start: time.Duration(i)})
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_ = s.Spans()
				var buf bytes.Buffer
				_ = s.WriteChromeTrace(&buf)
			}
		}()
	}
	wg.Wait()
	if n := len(s.Spans()); n != 2000 {
		t.Fatalf("retained %d spans, want 2000", n)
	}
}
