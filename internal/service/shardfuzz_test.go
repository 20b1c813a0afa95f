package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dynasym/internal/scenario"
)

// FuzzShardRequest holds POST /v1/shards — where a peer's bytes reach a
// worker — to its contract for any body: the reply is a 2xx, a 400 or a 409,
// the handler returns, and no cell panicked or left a worker of the
// one-worker pool busy. The corpus is a valid one-cell burst-sweep@0.05 shard,
// the same cell under a wrong hash, a cell index past the grid, and a shard
// with an unknown field.
func FuzzShardRequest(f *testing.F) {
	fam, _ := scenario.Lookup("burst-sweep")
	plan, err := scenario.NewPlan(fam.Spec(0.05))
	if err != nil {
		f.Fatal(err)
	}
	c := plan.Cells[0]
	shard := func(policy, point int, hash, extra string) []byte {
		return []byte(fmt.Sprintf(`{"spec":%s,"cells":[{"policy":%d,"point":%d,"rep":%d,"hash":%q}]%s}`,
			plan.Canonical, policy, point, c.Rep, hash, extra))
	}
	f.Add(shard(c.Policy, c.Point, c.Hash, ""))
	f.Add(shard(c.Policy, c.Point, "deadbeef", ""))
	f.Add(shard(c.Policy, len(plan.Spec.Points), c.Hash, ""))
	f.Add(shard(c.Policy, c.Point, c.Hash, `,"bogus":1`))

	m := NewManager(Config{Workers: 1})
	h := m.Handler(slog.New(slog.NewTextHandler(io.Discard, nil)))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shards", bytes.NewReader(body)))
		if code := rec.Code; code/100 != 2 && code != http.StatusBadRequest && code != http.StatusConflict {
			t.Fatalf("status %d for %q: %s", code, body, rec.Body)
		}
		if n := m.mx.cellPanics.Value(); n != 0 {
			t.Fatalf("%d cells panicked serving %q", n, body)
		}
		if n := gaugeValue(t, m, "asymd_pool_busy_workers"); n != 0 {
			t.Fatalf("%d pool workers still busy after the reply to %q", n, body)
		}
	})
}

// FuzzShardReply holds the coordinator's decode of a POST /v1/shards reply
// (decodeShardReply) to what the cell cache needs, for any bytes: an error,
// or one result per requested cell under its hash, each an error or a summary
// with a nonzero digest that came from 64 hex digits — never a panic. A decoded reply
// re-encodes to the same summaries. The corpus is a worker's genuine reply
// for two burst-sweep@0.05 cells, the same reply under the old "metrics"
// member, a cell error beside a short digest, and null.
func FuzzShardReply(f *testing.F) {
	fam, _ := scenario.Lookup("burst-sweep")
	plan, err := scenario.NewPlan(fam.Spec(0.05))
	if err != nil {
		f.Fatal(err)
	}
	cells := plan.Cells[:2]
	req := fmt.Sprintf(`{"spec":%s,"cells":[`, plan.Canonical)
	for i, c := range cells {
		if i > 0 {
			req += ","
		}
		req += fmt.Sprintf(`{"policy":%d,"point":%d,"rep":%d,"hash":%q}`, c.Policy, c.Point, c.Rep, c.Hash)
	}
	rec := httptest.NewRecorder()
	quietHandler(NewManager(Config{Workers: 1})).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shards", strings.NewReader(req+"]}")))
	if rec.Code != http.StatusOK {
		f.Fatalf("worker answered %d: %s", rec.Code, rec.Body)
	}
	f.Add(rec.Body.Bytes())
	f.Add(bytes.ReplaceAll(rec.Body.Bytes(), []byte(`"summary":`), []byte(`"metrics":`)))
	f.Add([]byte(fmt.Sprintf(`{"results":[{"hash":%q,"error":"bad cell"},{"hash":%q,"summary":{"Seed":1,"Digest":"00"}}]}`, cells[0].Hash, cells[1].Hash)))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, out, err := decodeShardReply(bytes.NewReader(data), cells)
		if err != nil {
			if out != nil {
				t.Fatalf("a failed decode returned %d results", len(out))
			}
			return
		}
		again := shardResponse{Results: make([]shardCellResult, len(out))}
		for i, cr := range out {
			if cr.Hash != cells[i].Hash {
				t.Fatalf("result %d carries hash %.12s for cell %.12s", i, cr.Hash, cells[i].Hash)
			}
			again.Results[i].Hash = cr.Hash
			if cr.Err == nil && cr.Summary.Digest == (scenario.Digest{}) {
				t.Fatalf("result %d is a summary without a digest", i)
			}
			if cr.Err != nil {
				again.Results[i].Error = cr.Err.Error()
				continue
			}
			again.Results[i].Summary = &cr.Summary
		}
		b, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("decoded summaries do not encode: %v", err)
		}
		_, back, err := decodeShardReply(bytes.NewReader(b), cells)
		if err != nil {
			t.Fatalf("a re-encoded reply does not decode: %v\n%s", err, b)
		}
		for i := range out {
			if back[i].Summary != out[i].Summary || (back[i].Err == nil) != (out[i].Err == nil) {
				t.Fatalf("result %d moved in a round trip: %+v, then %+v", i, out[i], back[i])
			}
		}
	})
}
