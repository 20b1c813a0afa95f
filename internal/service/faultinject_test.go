package service

// Deterministic fault injection for the chaos suite (fault_test.go): the
// dispatch path is tested the way the paper tests schedulers — disturb
// it on a schedule and measure that the output does not change. Two
// injection points cover the failure surface:
//
//   - faultBackend wraps any Backend and injects backend-level faults:
//     connection refusal, a wedged peer that never answers (cut off by
//     ShardTimeout), and a mid-shard crash after k completed cells whose
//     results are lost with it.
//
//   - faultTransport wraps a remote backend's http.RoundTripper and
//     injects wire-level faults into real HTTP responses: a corrupted
//     result hash (tripping the remote backend's verification) and a
//     truncated body (tripping the JSON decoder).
//
// Both consume a script one entry per call — explicit, or derived from a
// seed via seededFaultScript — so every chaos run is reproducible. The
// chaos suite is its only caller, so it is compiled into tests only; a
// production caller (an asymd chaos mode) would move it back.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"dynasym/internal/scenario"
	"dynasym/internal/xrand"
)

// faultKind is one scripted disturbance.
type faultKind int

const (
	// faultNone passes the call through untouched.
	faultNone faultKind = iota
	// faultRefuse fails immediately, like a connection refused.
	faultRefuse
	// faultDelay never answers until the attempt context is cancelled —
	// a wedged-but-connected peer; only ShardTimeout unsticks it.
	faultDelay
	// faultCrash completes the first crashAfter cells, then dies
	// mid-shard and returns no results, like a killed worker's half-sent
	// response.
	faultCrash
	// faultCorrupt (faultTransport only) flips a result hash in the
	// response body, so the coordinator's verification must reject it.
	faultCorrupt
	// faultTruncate (faultTransport only) cuts the response body in
	// half, so decoding fails mid-document.
	faultTruncate
)

func (k faultKind) String() string {
	switch k {
	case faultNone:
		return "none"
	case faultRefuse:
		return "refuse"
	case faultDelay:
		return "delay"
	case faultCrash:
		return "crash"
	case faultCorrupt:
		return "corrupt"
	case faultTruncate:
		return "truncate"
	default:
		return fmt.Sprintf("faultKind(%d)", int(k))
	}
}

// seededFaultScript draws a length-n schedule uniformly from kinds,
// deterministically from seed.
func seededFaultScript(seed uint64, n int, kinds ...faultKind) []faultKind {
	r := xrand.New(seed)
	s := make([]faultKind, n)
	for i := range s {
		s[i] = kinds[r.Intn(len(kinds))]
	}
	return s
}

// faultScript hands out one scripted fault per call, thread-safe. Past
// the script's end it returns faultNone, unless loop is set, in which
// case the script cycles forever.
type faultScript struct {
	mu     sync.Mutex
	script []faultKind
	pos    int
	loop   bool
}

func (f *faultScript) next() faultKind {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.script) == 0 {
		return faultNone
	}
	if f.pos >= len(f.script) {
		if !f.loop {
			return faultNone
		}
		f.pos = 0
	}
	k := f.script[f.pos]
	f.pos++
	return k
}

// faultBackend wraps inner and injects one scripted fault per Execute
// call. It is deliberately not a *localBackend, so the dispatcher treats
// it like a peer: breaker-tracked and bounded by ShardTimeout.
type faultBackend struct {
	name       string
	inner      Backend
	crashAfter int // cells completed before a faultCrash fires
	script     faultScript
	// injected counts the calls that actually faulted, so tests can
	// prove the chaos was not vacuous.
	injected atomic.Int64
}

func newFaultBackend(name string, inner Backend, crashAfter int, loop bool, script ...faultKind) *faultBackend {
	return &faultBackend{
		name:       name,
		inner:      inner,
		crashAfter: crashAfter,
		script:     faultScript{script: script, loop: loop},
	}
}

func (f *faultBackend) label() string { return f.name }

func (f *faultBackend) execute(ctx context.Context, plan *scenario.Plan, cells []scenario.CellJob) ([]CellResult, error) {
	switch k := f.script.next(); k {
	case faultRefuse:
		f.injected.Add(1)
		return nil, errors.New("injected fault: connection refused")
	case faultDelay:
		f.injected.Add(1)
		<-ctx.Done()
		return nil, fmt.Errorf("injected fault: peer wedged: %w", ctx.Err())
	case faultCrash:
		f.injected.Add(1)
		n := min(f.crashAfter, len(cells))
		f.inner.execute(ctx, plan, cells[:n])
		return nil, fmt.Errorf("injected fault: crashed after %d of %d cells", n, len(cells))
	default:
		return f.inner.execute(ctx, plan, cells)
	}
}

// faultTransport wraps an http.RoundTripper and injects wire-level
// faults into responses, one scripted entry per request. faultRefuse
// fails the round trip itself; faultCorrupt and faultTruncate mangle an
// otherwise-genuine response from the peer.
type faultTransport struct {
	base     http.RoundTripper
	script   faultScript
	injected atomic.Int64
}

func newFaultTransport(loop bool, script ...faultKind) *faultTransport {
	return &faultTransport{
		base:   http.DefaultTransport,
		script: faultScript{script: script, loop: loop},
	}
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	k := t.script.next()
	if k == faultRefuse {
		t.injected.Add(1)
		return nil, errors.New("injected fault: connection refused")
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil || k == faultNone {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	switch k {
	case faultCorrupt:
		if mangled, ok := corruptFirstHash(body); ok {
			t.injected.Add(1)
			body = mangled
		}
	case faultTruncate:
		t.injected.Add(1)
		body = body[:len(body)/2]
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Set("Content-Length", fmt.Sprint(len(body)))
	return resp, nil
}

// corruptFirstHash flips one hex digit of the first "hash" value in a
// JSON document, reporting whether it found one to flip.
func corruptFirstHash(body []byte) ([]byte, bool) {
	marker := []byte(`"hash":"`)
	i := bytes.Index(body, marker)
	if i < 0 {
		return body, false
	}
	out := append([]byte(nil), body...)
	j := i + len(marker)
	if j >= len(out) {
		return body, false
	}
	if out[j] == '0' {
		out[j] = '1'
	} else {
		out[j] = '0'
	}
	return out, true
}
