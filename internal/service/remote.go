package service

// Remote backend: farms cell shards to a peer asymd node over its
// internal POST /v1/shards API (served by Manager.Handler, see http.go).
//
// The wire format ships the plan's canonical spec JSON plus each cell's
// grid coordinates and expected hash. The worker re-plans the spec —
// re-deriving the same cells from the same canonical encoding — and
// verifies the hashes match before running anything, so a version-skewed
// peer refuses the shard instead of silently producing results under the
// wrong key. The check catches both encoding skew (the re-derived base
// differs) and engine skew (scenario.cellHashVersion, baked into every
// cell hash, must be bumped when engine behavior changes). A cell crosses
// as its scenario.RunSummary, plain JSON (Go encodes float64 exactly) with the
// peer's digest in hex, and the coordinator keeps it as it arrives: GET
// /v1/results/{hash}/fingerprint re-runs the cells and checks the digests.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"dynasym/internal/scenario"
	"dynasym/internal/trace"
)

// shardRequest is the POST /v1/shards body.
type shardRequest struct {
	// Spec is the plan's canonical spec encoding.
	Spec json.RawMessage `json:"spec"`
	// Cells are the shard's cells by grid coordinates. Hash is the
	// coordinator's cell hash; the worker rejects the shard if its own
	// derivation disagrees.
	Cells []shardCell `json:"cells"`
}

type shardCell struct {
	Policy int    `json:"policy"`
	Point  int    `json:"point"`
	Rep    int    `json:"rep"`
	Hash   string `json:"hash"`
}

// shardResponse is the POST /v1/shards reply: one entry per requested
// cell, in request order. ElapsedMS and Spans let the coordinator graft
// the worker's timeline into the job trace: ElapsedMS is the worker's
// wall time for the shard, and each span's Start/End are offsets (ms)
// from the worker's request receipt. The coordinator re-bases them into
// the attempt window assuming symmetric wire time, so no cross-node
// clock agreement is needed.
type shardResponse struct {
	Results   []shardCellResult `json:"results"`
	ElapsedMS float64           `json:"elapsed_ms,omitempty"`
	Spans     []wireSpan        `json:"spans,omitempty"`
}

// wireSpan is a worker-side trace span in wire form. Lane "" is the
// shard itself; other lanes (worker pool slots) are nested under the
// coordinator's attempt lane by prefixing.
type wireSpan struct {
	Name    string  `json:"name"`
	Cat     string  `json:"cat,omitempty"`
	Lane    string  `json:"lane,omitempty"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// shardCellResult is one cell of a shard reply. A peer from before summaries
// sends "metrics" and reads "metrics": either side fails the other over.
type shardCellResult struct {
	Hash    string               `json:"hash"`
	Summary *scenario.RunSummary `json:"summary,omitempty"`
	Error   string               `json:"error,omitempty"`
}

// maxShardBytes bounds a shard request (a dagfile spec carries its graph) or
// response document.
const maxShardBytes = 64 << 20

// remoteBackend executes shards on one peer asymd node.
type remoteBackend struct {
	url    string // peer base URL, no trailing slash
	client *http.Client
}

// dialTimeout bounds connecting to a peer.
const dialTimeout = 10 * time.Second

// newRemoteBackend returns a Backend that runs shards on the asymd node at
// baseURL (e.g. "http://10.0.0.7:8080"). Simulations can be long, so the
// client has no overall timeout — the dispatcher bounds each attempt with
// Config.ShardTimeout via the request context — but connecting gets its
// own short timeout (dialTimeout) so an unroutable peer fails over fast
// while long simulations still get their full attempt budget. A non-nil rt
// overrides the transport, which the chaos suite uses to inject wire-level
// faults (fault.go) between a real coordinator and a real worker.
func newRemoteBackend(baseURL string, rt http.RoundTripper) Backend {
	if rt == nil {
		rt = &http.Transport{
			DialContext: (&net.Dialer{Timeout: dialTimeout}).DialContext,
		}
	}
	return &remoteBackend{
		url:    strings.TrimRight(baseURL, "/"),
		client: &http.Client{Transport: rt},
	}
}

func (r *remoteBackend) label() string { return "peer " + r.url }

// graftSpans merges the worker's shard timeline into the coordinator's
// job trace. The attempt window [t0, t1] minus the worker's own elapsed
// time is wire time, split symmetrically: the worker's offsets re-base
// at t0 + oneWay. Worker lane "" lands on the attempt lane itself; pool
// lanes ("w0", "w1", ...) nest under it by prefixing, so each worker
// slot renders as its own Perfetto track. The residual wire time gets
// explicit "wire" slices bracketing the worker span.
func (r *remoteBackend) graftSpans(jt *jobTrace, lane string, t0, t1 time.Duration, sr *shardResponse) {
	if jt == nil || sr.ElapsedMS <= 0 {
		return
	}
	elapsed := time.Duration(sr.ElapsedMS * float64(time.Millisecond))
	oneWay := (t1 - t0 - elapsed) / 2
	if oneWay < 0 {
		oneWay, elapsed = 0, t1-t0
	}
	base := t0 + oneWay
	if oneWay > 0 {
		jt.span(trace.Span{Name: "wire", Cat: "wire", Lane: lane, Start: t0, End: base})
		jt.span(trace.Span{Name: "wire", Cat: "wire", Lane: lane, Start: base + elapsed, End: t1})
	}
	for _, ws := range sr.Spans {
		l := lane
		if ws.Lane != "" {
			l = lane + " " + ws.Lane
		}
		start := base + time.Duration(ws.StartMS*float64(time.Millisecond))
		end := base + time.Duration(ws.EndMS*float64(time.Millisecond))
		if end > t1 {
			end = t1
		}
		if start > end {
			start = end
		}
		jt.span(trace.Span{Name: ws.Name, Cat: ws.Cat, Lane: l, Start: start, End: end})
	}
}

func (r *remoteBackend) execute(ctx context.Context, plan *scenario.Plan, cells []scenario.CellJob) ([]CellResult, error) {
	// The plan carries its canonical encoding; re-marshaling here would
	// re-encode the full spec (graph included, for dagfile workloads)
	// once per shard attempt.
	req := shardRequest{Spec: plan.Canonical, Cells: make([]shardCell, len(cells))}
	for i, c := range cells {
		req.Cells[i] = shardCell{Policy: c.Policy, Point: c.Point, Rep: c.Rep, Hash: c.Hash}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encode shard: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id := requestIDFrom(ctx); id != "" {
		hreq.Header.Set("X-Request-ID", id)
	}
	jt := jobTraceFrom(ctx)
	t0 := jt.at()
	resp, err := r.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("post shard: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("shard rejected: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sr, out, err := decodeShardReply(io.LimitReader(resp.Body, maxShardBytes), cells)
	r.graftSpans(jt, traceLaneFrom(ctx), t0, jt.at(), &sr)
	return out, err // out is nil with an error
}

// decodeShardReply reads a shard reply: one result per cell asked for, in
// order, under its hash, with an error or a digested summary.
func decodeShardReply(body io.Reader, cells []scenario.CellJob) (sr shardResponse, out []CellResult, err error) {
	if err := json.NewDecoder(body).Decode(&sr); err != nil {
		return shardResponse{}, nil, fmt.Errorf("decode shard response: %w", err)
	}
	if len(sr.Results) != len(cells) {
		return sr, nil, fmt.Errorf("shard response has %d results for %d cells", len(sr.Results), len(cells))
	}
	out = make([]CellResult, len(cells))
	for i, cr := range sr.Results {
		if cr.Hash != cells[i].Hash {
			return sr, nil, fmt.Errorf("shard result %d carries hash %.12s, want %.12s", i, cr.Hash, cells[i].Hash)
		}
		out[i] = CellResult{Hash: cr.Hash}
		switch {
		case cr.Error != "":
			out[i].Err = errors.New(cr.Error)
		case cr.Summary == nil:
			return sr, nil, fmt.Errorf("shard result %d has neither a summary nor an error", i)
		case cr.Summary.Digest == scenario.Digest{}:
			return sr, nil, fmt.Errorf("shard result %d has a summary without a digest", i)
		default:
			out[i].Summary = *cr.Summary
		}
	}
	return sr, out, nil
}
