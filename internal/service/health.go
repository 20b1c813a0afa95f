package service

// Peer health tracking: every backend in the shard fleet is wrapped in a
// backendHandle, a per-peer circuit breaker. Consecutive transport
// failures trip the breaker (peerDown); a down peer is skipped by
// runShard until its probe time arrives, at which point exactly one
// shard attempt is admitted as the probe (peerProbing). A successful
// probe re-admits the peer; a failed one re-opens the breaker with an
// exponentially longer, jittered backoff. The in-process pool is created
// with breaker=false — it records outcomes but can never be marked down,
// which is what guarantees graceful degradation: when every remote peer
// is out, shards drain through the local pool and the job still
// completes.
//
// Time and randomness are injected (Manager.now / Manager.rng), so the
// whole state machine is deterministic under test: a fake clock drives
// probe scheduling and a seeded xrand.RNG fixes the jitter stream.

import (
	"fmt"
	"sync"
	"time"

	"dynasym/internal/obs"
)

// maxProbeBackoff caps the doubling probe backoff of a peer that keeps
// failing its probes (before jitter).
const maxProbeBackoff = time.Minute

// peerState is a handle's circuit-breaker position.
type peerState int32

const (
	// peerHealthy: shard attempts flow freely.
	peerHealthy peerState = iota
	// peerProbing: the breaker tripped and one probe attempt is in
	// flight; other shards skip the peer until the probe reports.
	peerProbing
	// peerDown: the breaker is open; the peer is skipped until nextProbe.
	peerDown
)

func (s peerState) String() string {
	switch s {
	case peerHealthy:
		return "healthy"
	case peerProbing:
		return "probing"
	case peerDown:
		return "down"
	default:
		return fmt.Sprintf("peerState(%d)", int32(s))
	}
}

// backendHandle wraps one Backend with failure accounting and the
// breaker state machine. All mutable fields are guarded by mu; the
// transition logic lives on Manager (admit/report) because it needs the
// config, clock and jitter source.
type backendHandle struct {
	Backend
	// breaker is false for the local pool: it is always admissible, so
	// the fleet can never reach a state where no backend will take a
	// shard.
	breaker bool

	// Per-peer metric series, wired by setBackends for breaker-tracked
	// handles (nil — and therefore inert — for the local pool):
	// successful-attempt RTT, failed attempts, the breaker-state gauge
	// (0 healthy, 1 probing, 2 down) and per-target transition counts.
	rttSec      *obs.Histogram
	failures    *obs.Counter
	stateG      *obs.Gauge
	transitions [peerDown + 1]*obs.Counter

	mu         sync.Mutex
	state      peerState
	fails      int // consecutive transport failures
	lastErr    error
	nextProbe  time.Time // down: earliest next attempt
	backoffExp int       // consecutive trips, drives the probe backoff
}

// setState moves the breaker state machine and keeps the gauge and
// transition counters in step. Call with h.mu held.
func (h *backendHandle) setState(s peerState) {
	if h.state == s {
		return
	}
	h.state = s
	h.stateG.Set(int64(s))
	h.transitions[s].Inc()
}

// setBackends (re)wraps a backend list in health handles; tests swap
// whole fleets in through this. Any *localBackend is exempted from the
// breaker (see backendHandle.breaker).
func (m *Manager) setBackends(bs ...Backend) {
	hs := make([]*backendHandle, len(bs))
	for i, b := range bs {
		_, isLocal := b.(*localBackend)
		hs[i] = &backendHandle{Backend: b, breaker: !isLocal}
		if hs[i].breaker {
			m.mx.wirePeerMetrics(hs[i])
		}
	}
	m.handles = hs
}

// admit reports whether a shard attempt may use h right now. A down
// peer is admitted once its probe time arrives, and that admission IS
// the probe: the state moves to probing so concurrent shards keep
// skipping the peer until the probe's outcome is reported.
func (m *Manager) admit(h *backendHandle) bool {
	if !h.breaker {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case peerProbing:
		return false
	case peerDown:
		if m.now().Before(h.nextProbe) {
			return false
		}
		h.setState(peerProbing)
		return true
	default:
		return true
	}
}

// report records the outcome of an attempt on h. Success closes the
// breaker and clears the failure accounting; failure increments it and
// trips the breaker once FailThreshold consecutive failures accumulate
// (immediately, if the attempt was a probe).
func (m *Manager) report(h *backendHandle, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err == nil {
		h.setState(peerHealthy)
		h.fails, h.backoffExp, h.lastErr = 0, 0, nil
		return
	}
	h.fails++
	h.lastErr = err
	if !h.breaker {
		return
	}
	if h.state == peerProbing || h.fails >= m.cfg.FailThreshold {
		d := m.cfg.ProbeBackoff
		for i := 0; i < h.backoffExp && d < maxProbeBackoff; i++ {
			d *= 2
		}
		d = min(d, maxProbeBackoff)
		h.backoffExp++
		h.nextProbe = m.now().Add(m.jitterDur(d))
		h.setState(peerDown)
	}
}

// cancelled records an attempt on h that its job cancelled. It proves
// nothing about the peer, so it leaves the failure accounting alone; but a
// probe must not leave the peer probing — admit would refuse it forever —
// so a probing peer goes back to down with its probe due now.
func (m *Manager) cancelled(h *backendHandle) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == peerProbing {
		h.nextProbe = m.now()
		h.setState(peerDown)
	}
}

// jitterDur scales d by a uniform factor in [0.5, 1.5): it desynchronizes
// probe storms across shards and nodes while keeping the mean, and stays
// deterministic under a seeded RNG.
func (m *Manager) jitterDur(d time.Duration) time.Duration {
	m.rngMu.Lock()
	f := 0.5 + m.rng.Float64()
	m.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// PeerStatus is one breaker-tracked backend's health snapshot, reported
// by GET /v1/healthz alongside the Stats.
type PeerStatus struct {
	Peer             string `json:"peer"`
	State            string `json:"state"`
	ConsecutiveFails int    `json:"consecutive_failures"`
	LastError        string `json:"last_error,omitempty"`
	// NextProbeSec is the time until a down peer is re-probed; zero for
	// healthy/probing peers (and for a down peer whose probe is due).
	NextProbeSec float64 `json:"next_probe_sec,omitempty"`
}

// peerHealth snapshots every breaker-tracked backend — the remote peers;
// the local pool is exempt and not listed.
func (m *Manager) peerHealth() []PeerStatus {
	now := m.now()
	var out []PeerStatus
	for _, h := range m.handles {
		if !h.breaker {
			continue
		}
		h.mu.Lock()
		ps := PeerStatus{Peer: h.label(), State: h.state.String(), ConsecutiveFails: h.fails}
		if h.lastErr != nil {
			ps.LastError = h.lastErr.Error()
		}
		if h.state == peerDown {
			if d := h.nextProbe.Sub(now); d > 0 {
				ps.NextProbeSec = d.Seconds()
			}
		}
		h.mu.Unlock()
		out = append(out, ps)
	}
	return out
}
