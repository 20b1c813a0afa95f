package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"testing"

	"dynasym/internal/experiments"
	"dynasym/internal/scenario"
)

// postFamily posts a family by name over HTTP and waits for the job.
func postFamily(t *testing.T, url, family string, scale float64, seed uint64) Status {
	t.Helper()
	st, code := postJob(t, url, fmt.Sprintf(`{"family": %q, "scale": %v, "seed": %d}`, family, scale, seed))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("POST family %s: status %d", family, code)
	}
	final := pollDone(t, url, st.ID)
	if final.State != "done" {
		t.Fatalf("family %s finished as %q: %s", family, final.State, final.Error)
	}
	return final
}

// TestDaemonAndCLIRunOneGrid: a paper figure posted to the daemon by family
// name finishes with the fingerprint of the in-process run of the family's
// spec, and every experiment that views a family renders the daemon's
// result byte for byte as experiments.Run (what asymbench -exp prints)
// renders its own run. The daemon keeps summaries, so its full result is the
// replay GET .../fingerprint prints, checked against the job's digests.
func TestDaemonAndCLIRunOneGrid(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 2})

	st := postFamily(t, srv.URL, "fig4a", 0.05, 7)
	var res ResultResponse
	if code := getJSON(t, srv.URL+"/v1/results/"+st.ID, &res); code != http.StatusOK {
		t.Fatalf("GET result: status %d", code)
	}
	fig4a, _ := scenario.Lookup("fig4a")
	spec := fig4a.Spec(0.05)
	spec.Seed = 7
	if direct := scenario.MustRun(spec).Fingerprint(); res.Fingerprint != direct {
		t.Errorf("fig4a through the daemon: fingerprint %s, in process %s", res.Fingerprint, direct)
	}

	views := 0
	for _, id := range experiments.Names() {
		family, view, ok := experiments.View(id)
		if !ok {
			continue
		}
		views++
		st := postFamily(t, srv.URL, family, 0.05, 42)
		j, ok := m.job(st.ID)
		if !ok {
			t.Fatalf("%s: job %s is gone", id, st.ID)
		}
		sum, fp, _, err := j.Result()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		daemon, err := m.replay(context.Background(), j)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if daemon.Fingerprint() != fp || sum.Name != daemon.Name {
			t.Errorf("%s: the replayed result is not the job's", id)
		}
		cli, err := experiments.Run(id, 0.05, 42)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var got, want bytes.Buffer
		view(daemon).Render(&got)
		cli.Render(&want)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: the view of the daemon's %s result differs from experiments.Run:\n%s\nwant:\n%s", id, family, got.Bytes(), want.Bytes())
		}
	}
	if views != 14 {
		t.Errorf("%d experiments view a family, want 14", views)
	}
}
