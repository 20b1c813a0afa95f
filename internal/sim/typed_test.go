package sim

import (
	"testing"
)

// recorder logs (kind, at) pairs it receives.
type recorder struct {
	kinds []EventKind
	ats   []float64
}

func (r *recorder) HandleEvent(kind EventKind, at float64) {
	r.kinds = append(r.kinds, kind)
	r.ats = append(r.ats, at)
}

// HandleEvent's at argument must equal the engine clock during dispatch.
func TestTypedEventTime(t *testing.T) {
	e := New()
	var seen, now float64
	e.AtEvent(2.5, &funcHandler{func(_ EventKind, at float64) {
		seen, now = at, e.Now()
	}}, 0)
	e.Run()
	if seen != 2.5 || now != 2.5 {
		t.Fatalf("at = %g, Now = %g, want 2.5", seen, now)
	}
}

// AfterEvent schedules relative to the current clock.
func TestAfterEvent(t *testing.T) {
	e := New()
	var at float64
	e.AtEvent(5, do(func() {
		e.AfterEvent(2, &funcHandler{func(_ EventKind, a float64) { at = a }}, 0)
	}), 0)
	e.Run()
	if at != 7 {
		t.Fatalf("typed event at %g, want 7", at)
	}
}

// A long-lived handler is held to the causality rule like a fresh one.
func TestAtEventPastPanics(t *testing.T) {
	e := New()
	r := &recorder{}
	e.AtEvent(5, r, 0)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling an event in the past did not panic")
		}
	}()
	e.AtEvent(1, r, 0)
}

// A long randomized mix of times must dispatch in exact (at, seq) order —
// the invariant the 4-ary heap must share with the old container/heap.
func TestHeapTotalOrder(t *testing.T) {
	e := New()
	var got []float64
	var markers []int
	// Deterministic pseudo-random times with many duplicates.
	x := uint64(88172645463325252)
	for i := 0; i < 5000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		at := float64(x % 97)
		seq := i
		e.AtEvent(at, do(func() { got = append(got, at); markers = append(markers, seq) }), 0)
	}
	e.Run()
	if len(got) != 5000 {
		t.Fatalf("ran %d events, want 5000", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("time went backwards at %d: %g after %g", i, got[i], got[i-1])
		}
		if got[i] == got[i-1] && markers[i] < markers[i-1] {
			t.Fatalf("tie at t=%g broke scheduling order: %d after %d", got[i], markers[i], markers[i-1])
		}
	}
}

// Steady-state typed scheduling plus dispatch must not allocate once the
// heap slice has grown to capacity (allocation-regression gate for the
// simulation hot path).
func TestTypedDispatchAllocFree(t *testing.T) {
	e := New()
	r := &countHandler{}
	// Warm: grow the heap slice beyond anything the measured runs need.
	for i := 0; i < 1024; i++ {
		e.AtEvent(float64(i)*1e-6, r, 0)
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 256; i++ {
			e.AtEvent(e.Now()+float64(i)*1e-6, r, 0)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("typed schedule+dispatch allocated %.1f allocs/run, want 0", allocs)
	}
}

type countHandler struct{ n int }

func (c *countHandler) HandleEvent(EventKind, float64) { c.n++ }

// Every AtEvent is one delivery: identical same-time (t, h, kind) events
// are not merged, whether scheduled before Run or from a handler at the
// current time.
func TestSameTimeDuplicatesAllDeliver(t *testing.T) {
	e := New()
	c := &countHandler{}
	e.AtEvent(0, c, 1)
	e.AtEvent(0, c, 1)
	e.AtEvent(2, do(func() {
		e.AtEvent(2, c, 1)
		e.AtEvent(2, c, 1)
		e.AtEvent(2, c, 1)
	}), 0)
	e.Run()
	if c.n != 5 {
		t.Fatalf("handler ran %d times, want 5", c.n)
	}
	if e.Processed != 6 {
		t.Fatalf("Processed = %d, want 6", e.Processed)
	}
}
