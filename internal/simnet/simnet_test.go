package simnet

import (
	"math"
	"testing"

	"dynasym/internal/sim"
)

// arrival is a Receiver that records when it was told.
type arrival struct {
	n  int
	at float64
}

func (a *arrival) Arrived(at float64) { a.n, a.at = a.n+1, at }

// step runs a test callback as an engine event, so Send and Recv happen at a
// chosen virtual time.
type step struct{ f func() }

func (s *step) HandleEvent(sim.EventKind, float64) { s.f() }

func at(e *sim.Engine, t float64, f func()) { e.AtEvent(t, &step{f}, 0) }

func TestSendThenRecv(t *testing.T) {
	e := sim.New()
	n := New(e, 1e-6, 1e9)
	got := &arrival{}
	key := MsgKey{From: 0, To: 1, Tag: 7}
	at(e, 0, func() { n.Send(key, 1e6) }) // 1 MB: 1 µs latency + 1 ms transfer
	at(e, 0.5e-3, func() { n.Recv(key, got) })
	e.Run()
	want := 1e-6 + 1e-3
	if got.n != 1 || math.Abs(got.at-want) > 1e-9 {
		t.Fatalf("told %d times, at %g, want once at %g", got.n, got.at, want)
	}
}

func TestRecvBeforeSend(t *testing.T) {
	e := sim.New()
	n := New(e, 2e-6, 1e9)
	got := &arrival{}
	key := MsgKey{From: 3, To: 0, Tag: 1}
	at(e, 0, func() { n.Recv(key, got) })
	at(e, 1.0, func() { n.Send(key, 0) })
	e.Run()
	if got.n != 1 || math.Abs(got.at-(1.0+2e-6)) > 1e-12 {
		t.Fatalf("told %d times, at %g", got.n, got.at)
	}
}

func TestRecvAfterArrivalFiresImmediately(t *testing.T) {
	e := sim.New()
	n := New(e, 1e-6, 1e9)
	key := MsgKey{From: 0, To: 1, Tag: 2}
	got := &arrival{}
	at(e, 0, func() { n.Send(key, 0) })
	at(e, 1.0, func() {
		n.Recv(key, got)
		if got.n != 1 {
			t.Error("late Recv did not fire synchronously")
		}
		if got.at > 1e-3 {
			t.Errorf("arrival time %g should reflect actual delivery", got.at)
		}
	})
	e.Run()
}

func TestDistinctTagsDoNotMatch(t *testing.T) {
	e := sim.New()
	n := New(e, 1e-6, 1e9)
	got := &arrival{}
	at(e, 0, func() {
		n.Send(MsgKey{From: 0, To: 1, Tag: 1}, 0)
		n.Recv(MsgKey{From: 0, To: 1, Tag: 2}, got)
	})
	e.Run()
	if got.n != 0 {
		t.Fatal("mismatched tag delivered")
	}
	if n.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", n.Pending())
	}
}

func TestDuplicateReceiverPanics(t *testing.T) {
	n := New(sim.New(), 1e-6, 1e9)
	key := MsgKey{From: 0, To: 1, Tag: 5}
	n.Recv(key, &arrival{})
	defer func() {
		if recover() == nil {
			t.Error("duplicate receiver did not panic")
		}
	}()
	n.Recv(key, &arrival{})
}

func TestDuplicateSendPanics(t *testing.T) {
	e := sim.New()
	n := New(e, 1e-6, 1e9)
	key := MsgKey{From: 0, To: 1, Tag: 5}
	n.Send(key, 0)
	n.Send(key, 0)
	defer func() {
		if recover() == nil {
			t.Error("a second arrival with no Recv in between did not panic")
		}
	}()
	e.Run()
}

func TestCounters(t *testing.T) {
	e := sim.New()
	n := New(e, 1e-6, 1e9)
	key := MsgKey{From: 0, To: 1, Tag: 9}
	n.Recv(key, &arrival{})
	n.Send(key, 10)
	e.Run()
	if n.Sent != 1 || n.Delivered != 1 || n.Pending() != 0 {
		t.Fatalf("sent=%d delivered=%d pending=%d", n.Sent, n.Delivered, n.Pending())
	}
}
