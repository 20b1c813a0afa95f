package sim

import (
	"container/heap"
	"math"
	"testing"
)

// funcHandler adapts a callback to Handler for the tests.
type funcHandler struct {
	f func(kind EventKind, at float64)
}

func (h *funcHandler) HandleEvent(kind EventKind, at float64) { h.f(kind, at) }

// do wraps a plain callback in a fresh handler.
func do(f func()) Handler {
	return &funcHandler{func(EventKind, float64) { f() }}
}

func TestOrdering(t *testing.T) {
	e := New()
	var order []int
	e.AtEvent(2, do(func() { order = append(order, 2) }), 0)
	e.AtEvent(1, do(func() { order = append(order, 1) }), 0)
	e.AtEvent(3, do(func() { order = append(order, 3) }), 0)
	end := e.Run()
	if end != 3 {
		t.Fatalf("final time %g, want 3", end)
	}
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := New()
	var order []string
	e.AtEvent(1, do(func() { order = append(order, "first") }), 0)
	e.AtEvent(1, do(func() { order = append(order, "second") }), 0)
	e.Run()
	if order[0] != "first" || order[1] != "second" {
		t.Fatalf("tie broken wrong: %v", order)
	}
}

func TestAfter(t *testing.T) {
	e := New()
	var at float64
	e.AtEvent(5, do(func() {
		e.AfterEvent(2, do(func() { at = e.Now() }), 0)
	}), 0)
	e.Run()
	if at != 7 {
		t.Fatalf("After landed at %g, want 7", at)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := New()
	count := 0
	var recur Handler
	recur = do(func() {
		count++
		if count < 10 {
			e.AfterEvent(1, recur, 0)
		}
	})
	e.AtEvent(0, recur, 0)
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 9 {
		t.Fatalf("time = %g, want 9", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := New()
	ran := 0
	e.AtEvent(1, do(func() { ran++; e.Stop() }), 0)
	e.AtEvent(2, do(func() { ran++ }), 0)
	e.Run()
	if ran != 1 {
		t.Fatalf("Stop did not halt processing: ran=%d", ran)
	}
	e.Run()
	if ran != 2 {
		t.Fatal("Run after Stop did not resume")
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	e.AtEvent(5, do(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.AtEvent(1, do(func() {}), 0)
	}), 0)
	e.Run()
}

func TestNaNPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("NaN time did not panic")
		}
	}()
	e.AtEvent(math.NaN(), do(func() {}), 0)
}

func TestProcessedCounter(t *testing.T) {
	e := New()
	for i := 0; i < 100; i++ {
		e.AtEvent(float64(i), do(func() {}), 0)
	}
	e.Run()
	if e.Processed != 100 {
		t.Fatalf("Processed = %d, want 100", e.Processed)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	e := New()
	var next Handler
	i := 0
	next = do(func() {
		i++
		if i < b.N {
			e.AfterEvent(1e-6, next, 0)
		}
	})
	e.AtEvent(0, next, 0)
	e.Run()
}

// refQueue is the heap-only reference the tiered engine is held to: pending
// events ordered by (at, seq) and nothing else.
type refEvent struct {
	at      float64
	seq, id int
}
type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

// popOrderDelays is the script both sides run: what event id schedules when
// it fires. The mix covers every routing decision — same-time cascades and
// the runtime's sub-µs to tens-of-µs delays including exact repeats that
// collide at equal times (the near tier, front, middle and back inserts),
// and millisecond-scale completions (the heap) — and depends on nothing but
// the seed and the id, so a divergence in dispatch order shows as a
// divergence in the id sequence.
func popOrderDelays(seed uint64, id int) []float64 {
	x := seed + uint64(id)*0x9e3779b97f4a7c15
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	out := make([]float64, next()%4)
	for i := range out {
		switch r := next() % 10; {
		case r < 2:
			out[i] = 0
		case r < 4:
			out[i] = 0.2e-6
		case r < 5:
			out[i] = 0.5e-6
		case r < 6:
			out[i] = 1e-6
		case r < 8:
			out[i] = 20e-6 * (0.5 + float64(next()%1000)/1000)
		default:
			out[i] = 1e-3 * (0.25 + float64(next()%4000)/1000)
		}
	}
	return out
}

// popMode says how engineOrder's run ends once the script's budget of events
// has fired, and whether a Stop cuts it before that.
type popMode int

const (
	stopAtBudget  popMode = iota // Stop, leaving the rest pending
	drainAtBudget                // let the pending ones fire without scheduling more
	// stopAndResume is stopAtBudget, but the run is also cut by a Stop
	// at half the budget, mid same-time cascade, and resumed by a second
	// Run; the concatenated order must be the uncut one.
	stopAndResume
)

// engineOrder runs the script on e from its current (fresh or Reset) state.
func engineOrder(t *testing.T, e *Engine, seed uint64, budget int, mode popMode) []int {
	var order []int
	nextID := 0
	cut := false
	var schedule func(at float64)
	schedule = func(at float64) {
		id := nextID
		nextID++
		e.AtEvent(at, do(func() {
			order = append(order, id)
			if len(order) >= budget {
				if mode != drainAtBudget {
					e.Stop()
				}
				return
			}
			for _, d := range popOrderDelays(seed, id) {
				schedule(e.Now() + d)
			}
			if mode == stopAndResume && !cut && len(order) >= budget/2 && len(e.keys) > 0 &&
				e.nearHead < len(e.near) && e.near[e.nearHead].at == e.Now() {
				cut = true // a same-time key waits at the near tier's front, the heap is not empty
				e.Stop()
			}
		}), 0)
	}
	for i := 0; i < 64; i++ {
		schedule(float64(i%8) * 0.3e-6)
	}
	e.Run()
	if mode == stopAndResume {
		if !cut {
			t.Fatalf("seed %d: no same-time cascade to cut after %d events", seed, budget/2)
		}
		e.Run()
	}
	return order
}

// pending counts the events queued in both tiers.
func pending(e *Engine) int {
	return len(e.keys) + (len(e.near) - e.nearHead)
}

func referenceOrder(seed uint64, budget int, drain bool) []int {
	var q refQueue
	var order []int
	seq, nextID := 0, 0
	push := func(at float64) {
		heap.Push(&q, refEvent{at: at, seq: seq, id: nextID})
		seq++
		nextID++
	}
	for i := 0; i < 64; i++ {
		push(float64(i%8) * 0.3e-6)
	}
	for q.Len() > 0 && (drain || len(order) < budget) {
		ev := heap.Pop(&q).(refEvent)
		order = append(order, ev.id)
		if len(order) >= budget {
			continue
		}
		for _, d := range popOrderDelays(seed, ev.id) {
			push(ev.at + d)
		}
	}
	return order
}

// TestPopOrderMatchesHeapReference is the differential gate on the storage
// tiers: whatever tier a key is routed to, events must fire in exactly the
// (at, seq) order of a plain heap — on a fresh engine, on one Reset after a
// drained run, on one Reset with events still pending in both tiers, and
// across a Stop that cuts a same-time cascade and the Run that resumes it.
func TestPopOrderMatchesHeapReference(t *testing.T) {
	const budget = 20000
	e := New()
	for _, c := range []struct {
		seed uint64
		mode popMode
	}{
		{1, stopAtBudget}, {2, drainAtBudget}, {0xdecafbad, stopAtBudget}, {77, drainAtBudget}, {78, stopAtBudget},
		{1, stopAndResume}, {0xdecafbad, stopAndResume},
	} {
		seed, drain := c.seed, c.mode == drainAtBudget
		got, want := engineOrder(t, e, seed, budget, c.mode), referenceOrder(seed, budget, drain)
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine fired %d events, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d fired event %d, the heap reference fires %d", seed, i, got[i], want[i])
			}
		}
		if len(want) < budget || drain != (pending(e) == 0) {
			t.Fatalf("seed %d: %d events fired, %d pending: the script died out early", seed, len(want), pending(e))
		}
		e.Reset() // when not drained, abandons events pending in both tiers
		if pending(e) != 0 || e.Now() != 0 {
			t.Fatalf("Reset left %d pending events at time %g", pending(e), e.Now())
		}
	}
}
