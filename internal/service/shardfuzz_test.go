package service

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
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
