package service

import (
	"io"
	"log/slog"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dynasym/internal/scenario"
)

// chaosSpec: 2 policies × 3 points × 2 reps = 12 distinct cells, enough
// to spread across several shards and backends.
func chaosSpec(seed uint64) scenario.Spec {
	s := overlapSpec(seed, 2, 4, 8)
	s.Reps = 2
	return s
}

const chaosCells = 12

// assertUndisturbedFingerprint checks the chaos invariant: whatever
// faults fired, the merged fingerprint is byte-identical to a run with
// no faults at all.
func assertUndisturbedFingerprint(t *testing.T, j *Job, spec scenario.Spec) {
	t.Helper()
	if j.loadState() != stateDone {
		t.Fatalf("job finished %v (%s), want done", j.loadState(), j.snapshot().Error)
	}
	_, fp, _, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if direct := scenario.MustRun(spec); fp != direct.Fingerprint() {
		t.Errorf("fingerprint diverged from the undisturbed run:\n--- chaos\n%s\n--- direct\n%s",
			fp, direct.Fingerprint())
	}
}

// TestChaosAllPeersRefusingDrainsLocally: with every remote peer refusing
// connections, the job must degrade gracefully — all shards drain through
// the local pool, each cell simulated exactly once, and both peers end up
// with open breakers.
func TestChaosAllPeersRefusingDrainsLocally(t *testing.T) {
	m := NewManager(Config{Workers: 2, ShardSize: 2, FailThreshold: 2})
	p1 := newFaultBackend("chaos-peer-1", newLocalBackend(2), 0, true, faultRefuse)
	p2 := newFaultBackend("chaos-peer-2", newLocalBackend(2), 0, true, faultRefuse)
	m.setBackends(m.local, p1, p2)

	spec := chaosSpec(70)
	j, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	assertUndisturbedFingerprint(t, j, spec)
	if got := m.cellRuns(); got != chaosCells {
		t.Errorf("degraded run simulated %d cells locally, want exactly %d", got, chaosCells)
	}
	if p1.injected.Load() == 0 || p2.injected.Load() == 0 {
		t.Fatalf("fault injection was vacuous: %d/%d refusals fired", p1.injected.Load(), p2.injected.Load())
	}
	for _, ps := range m.peerHealth() {
		if ps.State != "down" {
			t.Errorf("peer %s is %s with %d consecutive failures, want down", ps.Peer, ps.State, ps.ConsecutiveFails)
		}
		if ps.LastError == "" {
			t.Errorf("peer %s is down but reports no last error", ps.Peer)
		}
	}
	if st := j.snapshot(); st.CellHits+st.CellMisses != st.CellsTotal {
		t.Errorf("cell accounting drifted: %d hits + %d misses != %d total", st.CellHits, st.CellMisses, st.CellsTotal)
	}
}

// TestChaosWedgedPeerFailsOverWithinTimeout: a peer that accepts the
// shard but never answers must be cut off by ShardTimeout and the shard
// retried elsewhere; the wedge contributes zero cell runs.
func TestChaosWedgedPeerFailsOverWithinTimeout(t *testing.T) {
	m := NewManager(Config{Workers: 2, ShardSize: 4, ShardTimeout: 30 * time.Millisecond})
	wedged := newFaultBackend("chaos-wedged", newLocalBackend(2), 0, true, faultDelay)
	m.setBackends(wedged, m.local)

	spec := chaosSpec(71)
	j, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	assertUndisturbedFingerprint(t, j, spec)
	if got := m.cellRuns(); got != chaosCells {
		t.Errorf("local pool simulated %d cells, want all %d (the wedge must contribute none)", got, chaosCells)
	}
	if wedged.injected.Load() == 0 {
		t.Fatal("fault injection was vacuous: the wedge never fired")
	}
}

// TestChaosSeededSchedules: randomized-but-reproducible chaos. Two peers
// draw refuse/crash/clean outcomes from seeded fault schedules; for every
// seed the job completes with the undisturbed fingerprint.
func TestChaosSeededSchedules(t *testing.T) {
	spec := chaosSpec(73)
	want := scenario.MustRun(spec).Fingerprint()
	for seed := uint64(1); seed <= 5; seed++ {
		m := NewManager(Config{Workers: 4, ShardSize: 2, FailThreshold: 3})
		p1 := newFaultBackend("seeded-1", newLocalBackend(2), 1, false,
			seededFaultScript(seed, 64, faultNone, faultRefuse, faultCrash)...)
		p2 := newFaultBackend("seeded-2", newLocalBackend(2), 1, false,
			seededFaultScript(seed*977+1, 64, faultNone, faultRefuse, faultCrash)...)
		m.setBackends(m.local, p1, p2)
		j, _, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if j.loadState() != stateDone {
			t.Fatalf("seed %d: job finished %v (%s), want done", seed, j.loadState(), j.snapshot().Error)
		}
		_, fp, _, err := j.Result()
		if err != nil {
			t.Fatal(err)
		}
		if fp != want {
			t.Errorf("seed %d: fingerprint diverged under scripted chaos", seed)
		}
	}
}

// TestChaosWireFaultsRetryExactly mangles real HTTP responses between a
// coordinator and a worker — a corrupted result hash, or a truncated body.
// The coordinator holds two remote handles to the one worker, so the
// mangled attempt fails over to the second handle. remoteBackend's
// verification must reject the mangled response, and the worker's own cell
// cache must serve the re-sent shard so no cell is ever simulated twice.
func TestChaosWireFaultsRetryExactly(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind faultKind
	}{
		{"corrupt-hash", faultCorrupt},
		{"truncated-body", faultTruncate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			worker := NewManager(Config{Workers: 2})
			srv := httptest.NewServer(worker.Handler(slog.New(slog.NewTextHandler(io.Discard, nil))))
			defer srv.Close()

			// The first shard post comes back mangled; the second is clean.
			ft := newFaultTransport(false, tc.kind)
			coord := NewManager(Config{Workers: 2, ShardSize: 16})
			coord.setBackends(newRemoteBackend(srv.URL, ft), newRemoteBackend(srv.URL, ft))

			spec := chaosSpec(74)
			j, _, err := coord.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, j)
			assertUndisturbedFingerprint(t, j, spec)
			if ft.injected.Load() != 1 {
				t.Errorf("fault transport mangled %d responses, want 1", ft.injected.Load())
			}
			if coord.cellRuns() != 0 {
				t.Errorf("coordinator simulated %d cells itself; the remote fleet should have", coord.cellRuns())
			}
			// The worker banked every cell on the mangled attempt, so the
			// re-sent shard was all cache hits: exactly one run each.
			if got := worker.cellRuns(); got != chaosCells {
				t.Errorf("worker simulated %d cells across the attempts, want exactly %d", got, chaosCells)
			}
		})
	}
}

// TestChaosPeerRecoveryReadmits: a peer that refuses once, trips its
// breaker, and then heals must be skipped while down and re-admitted by
// the first due probe — no restart, no manual action.
func TestChaosPeerRecoveryReadmits(t *testing.T) {
	m := NewManager(Config{Workers: 2, ShardSize: 2, FailThreshold: 1})
	inner := newLocalBackend(2)
	peer := newFaultBackend("healing", inner, 0, false, faultRefuse) // one refusal, healthy after
	m.setBackends(peer, m.local)

	var clockMu sync.Mutex
	cur := time.Unix(1000, 0)
	m.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return cur
	}

	// Job 1: the shard homed on the peer hits the refusal, fails over to
	// the local pool, and trips the breaker (threshold 1).
	s1 := tinySpec(80)
	j1, _, err := m.Submit(s1)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	assertUndisturbedFingerprint(t, j1, s1)
	if ph := m.peerHealth(); len(ph) != 1 || ph[0].State != "down" {
		t.Fatalf("peer health after refusal = %+v, want one down peer", ph)
	}

	// Job 2, still inside the backoff window: the peer must be skipped.
	s2 := tinySpec(81)
	j2, _, err := m.Submit(s2)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	assertUndisturbedFingerprint(t, j2, s2)
	if got := inner.runs.Value(); got != 0 {
		t.Fatalf("down peer simulated %d cells during its backoff window", got)
	}

	// Advance past the probe time: job 3's first shard is the probe, it
	// succeeds, and the peer is healthy again.
	clockMu.Lock()
	cur = cur.Add(time.Hour)
	clockMu.Unlock()
	s3 := tinySpec(82)
	j3, _, err := m.Submit(s3)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j3)
	assertUndisturbedFingerprint(t, j3, s3)
	if got := inner.runs.Value(); got == 0 {
		t.Error("recovered peer never simulated a cell after its probe")
	}
	if ph := m.peerHealth(); len(ph) != 1 || ph[0].State != "healthy" || ph[0].ConsecutiveFails != 0 {
		t.Errorf("peer health after recovery = %+v, want one clean healthy peer", ph)
	}
}
