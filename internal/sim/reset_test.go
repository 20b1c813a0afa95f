package sim

import "testing"

// runTrace schedules a fixed event pattern on the engine and returns the
// observed dispatch order.
func runTrace(e *Engine) []int {
	var got []int
	e.AfterEvent(2e-6, do(func() { got = append(got, 1) }), 0)
	e.AfterEvent(1e-6, do(func() {
		got = append(got, 2)
		e.AfterEvent(0, do(func() { got = append(got, 3) }), 0)
	}), 0)
	e.AfterEvent(5, do(func() { got = append(got, 4) }), 0)
	e.Run()
	return got
}

func TestResetMatchesFreshEngine(t *testing.T) {
	want := runTrace(New())

	e := New()
	runTrace(e)
	e.Reset()
	if e.Now() != 0 || pending(e) != 0 || e.Processed != 0 {
		t.Fatalf("after Reset: now=%v pending=%d processed=%d, want all zero",
			e.Now(), pending(e), e.Processed)
	}
	got := runTrace(e)
	if len(got) != len(want) {
		t.Fatalf("reset engine dispatched %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reset engine order %v, want %v", got, want)
		}
	}
}

func TestResetDropsPendingEvents(t *testing.T) {
	e := New()
	fired := false
	e.AfterEvent(1, do(func() { fired = true }), 0)
	e.AfterEvent(1e-9, do(func() { e.Stop() }), 0)
	e.Run()
	if pending(e) != 1 {
		t.Fatalf("%d events pending after Stop, want the t=1 one", pending(e))
	}
	e.Reset()
	if pending(e) != 0 {
		t.Fatalf("Pending() = %d after Reset, want 0", pending(e))
	}
	e.Run()
	if fired {
		t.Fatal("Reset kept an event scheduled before the reset")
	}
}
