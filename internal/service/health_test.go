package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dynasym/internal/scenario"
)

// fakeClock pins a Manager's clock to a settable instant; the breaker
// state machine then runs entirely on test time.
type fakeClock struct {
	mu  chan struct{}
	cur time.Time
}

func pinClock(m *Manager) *fakeClock {
	c := &fakeClock{mu: make(chan struct{}, 1), cur: time.Unix(1000, 0)}
	c.mu <- struct{}{}
	m.now = c.now
	return c
}

func (c *fakeClock) now() time.Time {
	<-c.mu
	defer func() { c.mu <- struct{}{} }()
	return c.cur
}

func (c *fakeClock) advance(d time.Duration) {
	<-c.mu
	c.cur = c.cur.Add(d)
	c.mu <- struct{}{}
}

// TestPeerBreakerLifecycle drives one handle through the full circuit:
// healthy → down after FailThreshold consecutive failures → probe
// admitted once the (jittered, exponential) backoff elapses → a failed
// probe re-opens with a longer period → a successful probe recovers.
func TestPeerBreakerLifecycle(t *testing.T) {
	m := NewManager(Config{Workers: 1, FailThreshold: 2, ProbeBackoff: time.Second})
	clock := pinClock(m)
	h := &backendHandle{Backend: &flakyBackend{}, breaker: true}
	boom := errors.New("boom")

	if !m.admit(h) {
		t.Fatal("fresh handle not admissible")
	}
	m.report(h, boom)
	if h.state != peerHealthy {
		t.Fatalf("state %v after 1 failure, want healthy (threshold is 2)", h.state)
	}
	if !m.admit(h) {
		t.Fatal("handle below threshold not admissible")
	}
	m.report(h, boom) // second consecutive failure: trips the breaker
	if h.state != peerDown {
		t.Fatalf("state %v after %d consecutive failures, want down", h.state, h.fails)
	}
	wait := h.nextProbe.Sub(clock.now())
	if wait < 500*time.Millisecond || wait >= 1500*time.Millisecond {
		t.Fatalf("first down period %v, want 1s scaled by jitter in [0.5, 1.5)", wait)
	}
	if m.admit(h) {
		t.Fatal("down peer admitted before its probe time")
	}

	clock.advance(wait) // probe due
	if !m.admit(h) {
		t.Fatal("due probe not admitted")
	}
	if h.state != peerProbing {
		t.Fatalf("state %v after probe admission, want probing", h.state)
	}
	if m.admit(h) {
		t.Fatal("second probe admitted while one is in flight")
	}

	m.report(h, boom) // failed probe: re-open with doubled backoff
	if h.state != peerDown {
		t.Fatalf("state %v after a failed probe, want down", h.state)
	}
	wait = h.nextProbe.Sub(clock.now())
	if wait < time.Second || wait >= 3*time.Second {
		t.Fatalf("second down period %v, want 2s scaled by jitter in [0.5, 1.5)", wait)
	}

	clock.advance(wait)
	if !m.admit(h) {
		t.Fatal("second probe not admitted")
	}
	m.report(h, nil) // probe succeeds: full recovery
	if h.state != peerHealthy || h.fails != 0 || h.backoffExp != 0 || h.lastErr != nil {
		t.Fatalf("recovered handle state=%v fails=%d exp=%d lastErr=%v, want clean healthy",
			h.state, h.fails, h.backoffExp, h.lastErr)
	}
	if !m.admit(h) {
		t.Fatal("recovered peer not admissible")
	}
}

// TestProbeBackoffCaps: repeated failed probes double the down period
// only up to maxProbeBackoff.
func TestProbeBackoffCaps(t *testing.T) {
	m := NewManager(Config{Workers: 1, FailThreshold: 1, ProbeBackoff: time.Second})
	clock := pinClock(m)
	h := &backendHandle{Backend: &flakyBackend{}, breaker: true}
	boom := errors.New("boom")
	lo, hi := maxProbeBackoff/2, maxProbeBackoff*3/2 // the cap scaled by jitter in [0.5, 1.5)
	for i := 0; i < 10; i++ {
		m.report(h, boom)
		if h.state != peerDown {
			t.Fatalf("trip %d: state %v, want down", i, h.state)
		}
		wait := h.nextProbe.Sub(clock.now())
		if wait >= hi {
			t.Fatalf("trip %d: down period %v exceeds the %v cap (with jitter <%v)", i, wait, maxProbeBackoff, hi)
		}
		clock.advance(wait)
		if !m.admit(h) {
			t.Fatalf("trip %d: due probe not admitted", i)
		}
	}
	// After many trips the period sits at the cap.
	m.report(h, boom)
	if wait := h.nextProbe.Sub(clock.now()); wait < lo || wait >= hi {
		t.Fatalf("capped down period %v, want %v scaled by jitter in [0.5, 1.5)", wait, maxProbeBackoff)
	}
}

// TestJitterDeterministic: two managers share the jitter seed, so their
// backoff streams are identical — chaos runs are reproducible.
func TestJitterDeterministic(t *testing.T) {
	a, b := NewManager(Config{Workers: 1}), NewManager(Config{Workers: 1})
	for i := 0; i < 64; i++ {
		da, db := a.jitterDur(time.Second), b.jitterDur(time.Second)
		if da != db {
			t.Fatalf("jitter stream diverged at draw %d: %v vs %v", i, da, db)
		}
		if da < 500*time.Millisecond || da >= 1500*time.Millisecond {
			t.Fatalf("jitterDur(1s) = %v, want within [0.5s, 1.5s)", da)
		}
	}
}

// TestLocalBackendNeverTrips: the in-process pool records failures but
// stays admissible and is absent from the peer health report — the
// graceful-degradation guarantee.
func TestLocalBackendNeverTrips(t *testing.T) {
	m := NewManager(Config{Workers: 1, FailThreshold: 1})
	h := m.handles[0]
	if h.breaker {
		t.Fatal("local backend handle has its breaker enabled")
	}
	for i := 0; i < 5; i++ {
		m.report(h, errors.New("pool hiccup"))
	}
	if !m.admit(h) {
		t.Error("local backend inadmissible after failures; degradation would deadlock")
	}
	if h.state != peerHealthy {
		t.Errorf("local backend state %v, want healthy", h.state)
	}
	if peers := m.peerHealth(); len(peers) != 0 {
		t.Errorf("PeerHealth lists %d entries for a peerless manager, want 0", len(peers))
	}
}

// namedFailBackend always fails with its own distinct message.
type namedFailBackend struct{ name, msg string }

func (b *namedFailBackend) label() string { return b.name }
func (b *namedFailBackend) execute(context.Context, *scenario.Plan, []scenario.CellJob) ([]CellResult, error) {
	return nil, errors.New(b.msg)
}

// TestShardErrorAggregatesAllBackends pins the errors.Join satellite: a
// shard exhausted across several backends must report every cause, not
// just the last attempt's.
func TestShardErrorAggregatesAllBackends(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	m.setBackends(
		&namedFailBackend{"peerA", "connection refused by A"},
		&namedFailBackend{"peerB", "tls handshake failed at B"},
	)
	j, _, err := m.Submit(tinySpec(62))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.loadState() != stateFailed {
		t.Fatalf("job finished %v, want failed", j.loadState())
	}
	_, _, _, err = j.Result()
	if err == nil {
		t.Fatal("failed job carries no error")
	}
	for _, want := range []string{"peerA", "connection refused by A", "peerB", "tls handshake failed at B"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error %q is missing %q", err, want)
		}
	}
}

// TestCancelledProbeRearmsBreaker: a probe its job cancels proves nothing
// about the peer. It must not leave the breaker probing, where admit would
// refuse the peer forever; the peer goes back to down, its probe due now.
func TestCancelledProbeRearmsBreaker(t *testing.T) {
	m := NewManager(Config{Workers: 1, FailThreshold: 1})
	clock := pinClock(m)
	m.setBackends(&scriptedBackend{name: "blocking", fn: func(ctx context.Context, _ *scenario.Plan, _ []scenario.CellJob) ([]CellResult, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	h := m.handles[0]
	m.report(h, errors.New("boom")) // trips the breaker
	clock.advance(time.Hour)        // the probe is due

	plan, err := scenario.NewPlan(tinySpec(63))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := m.runShard(ctx, 0, plan, plan.Cells); !errors.Is(err, context.Canceled) {
		t.Fatalf("runShard error = %v, want context.Canceled", err)
	}

	clock.advance(24 * time.Hour)
	ph := m.peerHealth()
	if len(ph) != 1 || ph[0].State != "down" || ph[0].ConsecutiveFails != 1 || ph[0].NextProbeSec != 0 {
		t.Fatalf("peer health after a cancelled probe = %+v, want down with 1 failure and its probe due", ph)
	}
	if !m.admit(h) {
		t.Fatal("peer not admitted once its probe is due after a cancelled probe")
	}
}
