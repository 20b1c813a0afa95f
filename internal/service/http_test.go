package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dynasym/internal/core"
	"dynasym/internal/scenario"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(cfg)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := httptest.NewServer(m.Handler(logger))
	t.Cleanup(srv.Close)
	return m, srv
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJob(t *testing.T, url string, body string) (Status, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("POST /v1/jobs: decode %q: %v", raw, err)
		}
	}
	return st, resp.StatusCode
}

func pollDone(t *testing.T, url, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st Status
		if code := getJSON(t, url+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if st.State == "done" || st.State == "failed" {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Status{}
}

// TestHTTPEndToEnd is the acceptance check: submit over HTTP, poll to
// done, fetch the result, and compare the fingerprint byte-for-byte with
// a direct engine run of the same spec; then resubmit and verify the
// cache answers without another engine run.
func TestHTTPEndToEnd(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 2, CacheSize: 8})

	spec := tinySpec(21)
	specJSON, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"spec": %s}`, specJSON)

	st, code := postJob(t, srv.URL, body)
	if code != http.StatusAccepted {
		t.Fatalf("first POST: status %d, want 202", code)
	}
	if st.ID == "" {
		t.Fatal("no job id")
	}
	wantHash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != wantHash {
		t.Errorf("job id %s, want the spec hash %s", st.ID, wantHash)
	}

	final := pollDone(t, srv.URL, st.ID)
	if final.State != "done" {
		t.Fatalf("job finished as %q: %s", final.State, final.Error)
	}
	if final.CellsDone != final.CellsTotal || final.CellsTotal == 0 {
		t.Errorf("progress %d/%d at done", final.CellsDone, final.CellsTotal)
	}

	var res ResultResponse
	if code := getJSON(t, srv.URL+"/v1/results/"+st.ID, &res); code != http.StatusOK {
		t.Fatalf("GET result: status %d", code)
	}
	direct := scenario.MustRun(tinySpec(21))
	if res.Fingerprint != direct.Fingerprint() {
		t.Errorf("HTTP fingerprint differs from direct engine run")
	}
	if len(res.Throughputs) != 2 || len(res.Throughputs[0]) != 2 {
		t.Errorf("throughput grid %dx?, want 2x2", len(res.Throughputs))
	}

	// Resubmit: served from cache, no new engine run.
	st2, code := postJob(t, srv.URL, body)
	if code != http.StatusOK {
		t.Errorf("cached POST: status %d, want 200", code)
	}
	if st2.State != "done" {
		t.Errorf("cached POST state %q, want done", st2.State)
	}
	if got := m.engineRuns(); got != 1 {
		t.Errorf("engine ran %d times, want 1", got)
	}
}

// TestHTTPConcurrentIdenticalPosts checks N concurrent identical POSTs
// collapse to one job id and one engine run over the wire.
func TestHTTPConcurrentIdenticalPosts(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	spec := tinySpec(22)
	sj, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"spec": %s}`, sj)

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, code := postJob(t, srv.URL, body)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("POST %d: status %d", i, code)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("POST %d got job %s, POST 0 got %s", i, ids[i], ids[0])
		}
	}
	pollDone(t, srv.URL, ids[0])
	if got := m.engineRuns(); got != 1 {
		t.Errorf("engine ran %d times for %d identical POSTs, want 1", got, n)
	}
	// All N callers fetch the one fingerprint.
	fps := map[string]bool{}
	for i := 0; i < n; i++ {
		var res ResultResponse
		if code := getJSON(t, srv.URL+"/v1/results/"+ids[i], &res); code != http.StatusOK {
			t.Fatalf("GET result %d: status %d", i, code)
		}
		fps[res.Fingerprint] = true
	}
	if len(fps) != 1 {
		t.Errorf("%d distinct fingerprints, want 1", len(fps))
	}
}

// TestHTTPFamilySubmit submits a registered family by name.
func TestHTTPFamilySubmit(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	st, code := postJob(t, srv.URL, `{"family": "burst-sweep", "scale": 0.001}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST family: status %d", code)
	}
	final := pollDone(t, srv.URL, st.ID)
	if final.State != "done" {
		t.Fatalf("family job finished as %q: %s", final.State, final.Error)
	}
	var res ResultResponse
	if code := getJSON(t, srv.URL+"/v1/results/"+st.ID, &res); code != http.StatusOK {
		t.Fatalf("GET family result: status %d", code)
	}
	if res.Name != "burst-sweep" || res.Fingerprint == "" {
		t.Errorf("family result name=%q fingerprint empty=%v", res.Name, res.Fingerprint == "")
	}
}

// hugeCellBody is one integer that used to kill the daemon: accepted with
// 202, then a fatal out-of-memory — which no recover sees — when the first
// cell asked dag.Graph.Grow for 2^33 tasks.
const hugeCellBody = `{"spec":{"name":"x","platform":{"preset":"tx2"},"workload":{"kind":"synthetic","synthetic":{"kernel":"MatMul","tasks":8589934592}},"policies":["RWS"],"seed":1}}`

// bigTraceBody is a job of one cell one task above maxTracedTasks: it runs,
// and its sim trace is refused.
const bigTraceBody = `{"spec":{"name":"x","platform":{"preset":"tx2"},"workload":{"kind":"synthetic","synthetic":{"kernel":"Copy","tasks":32769,"parallelism":64}},"policies":["RWS"],"seed":1}}`

// hugeJobBody is cells each within maxCellTasks, but too many of them: 17
// repetitions of a 4 194 304-task cell.
const hugeJobBody = `{"spec":{"name":"x","platform":{"preset":"tx2"},"workload":{"kind":"synthetic","synthetic":{"kernel":"MatMul","tasks":4194304}},"policies":["RWS"],"reps":17,"seed":1}}`

// Two integers each that used to kill the daemon inside the submit handler —
// Validate builds the platform, and a Platform's place index is cores ×
// widest width — or cost a worker 15 s and gigabytes for a 6 144-task cell:
// the random-layered generator draws up to min(degree, width) predecessors
// per node.
const (
	hugeSymBody      = `{"spec": {"platform": {"preset": "sym8589934592"}, "workload": {"kind": "synthetic"}, "policies": ["RWS"]}}`
	hugeScaleoutBody = `{"spec": {"platform": {"preset": "scaleout-1x65536"}, "workload": {"kind": "synthetic"}, "policies": ["RWS"]}}`
	hugeClusterBody  = `{"spec": {"platform": {"clusters": [{"name": "c", "first_core": 0, "num_cores": 8589934592, "widths": [1], "speed": 1, "base_hz": 1e9}]}, "workload": {"kind": "synthetic"}, "policies": ["RWS"]}}`
	denseRandomBody  = `{"spec": {"workload": {"kind": "daggen", "daggen": {"model": "random-layered", "layers": 3, "width": 2048, "degree": 2048}}, "policies": ["RWS"]}}`
	// Two resources clash, so the answer depends on which is checked first;
	// it used to vary from request to request.
	overlapBody = `{"spec": {"workload": {"kind": "synthetic"}, "policies": ["RWS"], "disturb": [` +
		`{"kind": "throttle", "cluster": 0, "from": 1, "to": 3, "floor": 0.5}, {"kind": "throttle", "cluster": 0, "from": 2, "to": 4, "floor": 0.5}, ` +
		`{"kind": "stall", "cluster": 1, "from": 1, "to": 3}, {"kind": "stall", "cluster": 1, "from": 2, "to": 4}]}}`
)

// A custom cluster without memory bandwidth used to pass Validate and panic
// every cell: a memory-bound task never finished.
const noBandwidthBody = `{"spec": {"platform": {"clusters": [{"name": "c", "first_core": 0, "num_cores": 2, "widths": [1, 2], "speed": 1, "base_hz": 1e9}]}, ` +
	`"workload": {"kind": "synthetic", "synthetic": {"kernel": "Copy", "tasks": 20}}, "policies": ["RWS"]}}`

// A sampled policy over a sampled base used to take the wrong search
// objective, and an unbounded K held a worker for hours on one cell.
const (
	nestedSampledBody = `{"spec": {"workload": {"kind": "synthetic"}, "policies": ["DAM-P~8~4"]}}`
	hugeKBody         = `{"spec": {"workload": {"kind": "synthetic"}, "policies": ["DAM-C~2000000000"]}}`
)

// A 10 ns DVFS wave made one 600-task cell take 9.2 s, and a throttle ramp of
// 2^30 steps would have asked for about 250 GB: both were accepted.
const (
	tenNsWaveBody = `{"spec": {"platform": {"preset": "tx2"}, "workload": {"kind": "synthetic", "synthetic": {"kernel": "MatMul", "tasks": 600}}, ` +
		`"disturb": [{"kind": "dvfs", "hi_hz": 2035e6, "lo_hz": 345e6, "hi_dur": 1e-8, "lo_dur": 1e-8}], "policies": ["DAM-C"]}}`
	hugeRampBody = `{"spec": {"platform": {"preset": "tx2"}, "workload": {"kind": "synthetic", "synthetic": {"kernel": "MatMul", "tasks": 600}}, ` +
		`"disturb": [{"kind": "throttle", "from": 1, "to": 2, "floor": 0.5, "ramp_steps": 1073741824}], "policies": ["DAM-C"]}}`
)

// httpErrorBodies are TestHTTPErrors' submissions and the status each gets;
// FuzzSubmitBody starts from them too.
// badScaleBody names a family at a scale outside (0, 1]; it used to run the
// paper-scale grid.
const badScaleBody = `{"family": "burst-sweep", "scale": -1}`

// seedWithSpecBody and scaleWithSpecBody give a valid spec beside a field that
// applies to a family; they used to run the spec with the field dropped.
const (
	seedWithSpecBody  = `{"spec": {"workload": {"kind": "synthetic"}, "policies": ["RWS"], "seed": 1}, "seed": 7}`
	scaleWithSpecBody = `{"spec": {"workload": {"kind": "synthetic"}, "policies": ["RWS"]}, "scale": 0.5}`
)

var httpErrorBodies = map[string]struct {
	body string
	want int
}{
	"empty":          {`{}`, http.StatusBadRequest},
	"both":           {`{"family": "burst-sweep", "spec": {"policies": ["RWS"]}}`, http.StatusBadRequest},
	"seed and spec":  {seedWithSpecBody, http.StatusBadRequest},
	"scale and spec": {scaleWithSpecBody, http.StatusBadRequest},
	"unknown family": {`{"family": "nope"}`, http.StatusBadRequest},
	"negative scale": {badScaleBody, http.StatusBadRequest},
	"scale above 1":  {`{"family": "burst-sweep", "scale": 5}`, http.StatusBadRequest},
	"bad spec":       {`{"spec": {"workload": {"kind": "synthetic"}, "policies": ["SJF"]}}`, http.StatusBadRequest},
	"invalid spec":   {`{"spec": {"workload": {"kind": "synthetic"}, "policies": []}}`, http.StatusBadRequest},
	"negative size":  {`{"spec": {"workload": {"kind": "heatdist", "heat": {"nodes": 2, "blocks_per_node": -3}}, "policies": ["RWS"]}}`, http.StatusBadRequest},
	"grid too large": {`{"spec":{"name":"x","platform":{"preset":"tx2"},"workload":{"kind":"synthetic","synthetic":{"kernel":"MatMul","tasks":50}},"policies":["RWS"],"reps":1099511627776,"seed":1}}`, http.StatusBadRequest},
	"cell too large": {hugeCellBody, http.StatusBadRequest},
	"job too large":  {hugeJobBody, http.StatusBadRequest},
	"wide layer":     {`{"spec": {"workload": {"kind": "synthetic", "synthetic": {"kernel": "MatMul", "parallelism": 8589934592}}, "policies": ["RWS"]}}`, http.StatusBadRequest},
	"kmeans cell":    {`{"spec": {"platform": {"preset": "haswell16"}, "workload": {"kind": "kmeans", "kmeans": {"grains": 4294967296, "max_iters": 4294967296}}, "policies": ["RWS"]}}`, http.StatusBadRequest},
	"heat cell":      {`{"spec": {"platform": {"preset": "haswell-node"}, "workload": {"kind": "heatdist", "heat": {"nodes": 2, "blocks_per_node": 4294967296, "iters": 4294967296}}, "policies": ["RWS"]}}`, http.StatusBadRequest},
	"daggen tiles":   {`{"spec": {"workload": {"kind": "daggen", "daggen": {"model": "cholesky", "tiles": 8589934592}}, "policies": ["RWS"]}}`, http.StatusBadRequest},
	"daggen layers":  {`{"spec": {"workload": {"kind": "daggen", "daggen": {"model": "random-layered", "layers": 4294967296, "width": 4294967296}}, "policies": ["RWS"]}}`, http.StatusBadRequest},
	"huge sym":       {hugeSymBody, http.StatusBadRequest},
	"huge scaleout":  {hugeScaleoutBody, http.StatusBadRequest},
	"huge cluster":   {hugeClusterBody, http.StatusBadRequest},
	"dense random":   {denseRandomBody, http.StatusBadRequest},
	"overlap":        {overlapBody, http.StatusBadRequest},
	"nested sampled": {nestedSampledBody, http.StatusBadRequest},
	"sampled K":      {hugeKBody, http.StatusBadRequest},
	"unknown field":  {`{"famly": "burst-sweep"}`, http.StatusBadRequest},
	"no bandwidth":   {noBandwidthBody, http.StatusBadRequest},
	"10 ns wave":     {tenNsWaveBody, http.StatusBadRequest},
	"huge ramp":      {hugeRampBody, http.StatusBadRequest},
	"not json":       {`hello`, http.StatusBadRequest},
}

// TestHTTPErrors covers the 4xx surface.
func TestHTTPErrors(t *testing.T) {
	m, srv := newTestServer(t, Config{})
	for name, tc := range httpErrorBodies {
		_, code := postJob(t, srv.URL, tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d", name, code, tc.want)
		}
	}
	// The refusal names the field as the client spelled it, and the limit.
	for body, wants := range map[string][]string{
		hugeCellBody:      {"workload.synthetic.tasks", "MaxCellTasks (4194304)"},
		hugeJobBody:       {"a job of 71303168 tasks", "MaxJobTasks (67108864)"},
		hugeSymBody:       {`platform.preset \"sym8589934592\"`, "MaxPlatformCores (1024)"},
		hugeScaleoutBody:  {`platform.preset \"scaleout-1x65536\"`, "MaxPlatformCores (1024)"},
		hugeClusterBody:   {"platform.clusters[].num_cores", "MaxPlatformCores (1024)"},
		denseRandomBody:   {"workload.daggen.degree", "MaxCellEdges (4194304)"},
		overlapBody:       {"overlapping core availability disturbances on node 0 resource 2 (stall [1, 3) and stall [2, 4))"},
		nestedSampledBody: {`policy \"DAM-P~8~4\": the base of a sampled policy cannot itself be sampled`},
		hugeKBody:         {`policy \"DAM-C~2000000000\": K of 2000000000 exceeds MaxSampledK (1024)`},
		noBandwidthBody:   {`cluster \"c\" has non-positive mem_bandwidth 0`},
		tenNsWaveBody:     {"stretches of at least 1e-06 s: hi_dur 1e-08, lo_dur 1e-08"},
		hugeRampBody:      {"ramp_steps 1073741824 outside [0, 1024]"},
		badScaleBody:      {"service: family scale -1 outside (0, 1]"},
		seedWithSpecBody:  {`\"seed\" applies to family`},
		scaleWithSpecBody: {`\"scale\" applies to family`},
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, want := range wants {
			if !strings.Contains(string(msg), want) {
				t.Errorf("%s: error %q does not name %q", body, msg, want)
			}
		}
	}
	// A sim trace of a cell above maxTracedTasks is refused, naming the
	// limit, before the cell runs again.
	big, code := postJob(t, srv.URL, bigTraceBody)
	if code != http.StatusAccepted {
		t.Fatalf("a job of one %d-task cell: status %d, want 202", maxTracedTasks+1, code)
	}
	code, msg := getBody(t, srv.URL+"/v1/jobs/"+big.ID+"/cells/0/simtrace")
	if want := "a cell of at most MaxTracedTasks (32768)"; code != http.StatusBadRequest || !strings.Contains(string(msg), want) {
		t.Errorf("over-cap simtrace: status %d, %q; want 400 naming %q", code, msg, want)
	}
	if n := m.mx.simtraceRenders.Value(); n != 0 {
		t.Errorf("the refused simtrace rendered %d traces, want 0", n)
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/deadbeef", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	if code := getJSON(t, srv.URL+"/v1/results/deadbeef", nil); code != http.StatusNotFound {
		t.Errorf("unknown result: status %d, want 404", code)
	}
	// None of the bodies above may have cost the daemon its life ("grid too
	// large" used to: accepted with 202, then out of memory in NewPlan; the
	// six oversized cells likewise, in the first cell's graph builder; the
	// three oversized platforms before any answer, in Validate).
	if code := getJSON(t, srv.URL+"/v1/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz after the bad submissions: status %d, want 200", code)
	}
}

// TestHTTPHealthzAndFamilies checks the discovery endpoints.
func TestHTTPHealthzAndFamilies(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 3, CacheSize: 7})
	var health struct {
		OK    bool  `json:"ok"`
		Stats Stats `json:"stats"`
	}
	if code := getJSON(t, srv.URL+"/v1/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if !health.OK || health.Stats.Workers != 3 || health.Stats.CacheSize != 7 {
		t.Errorf("healthz = %+v", health)
	}
	var fams []FamilyInfo
	if code := getJSON(t, srv.URL+"/v1/families", &fams); code != http.StatusOK {
		t.Fatalf("families status %d", code)
	}
	if len(fams) != len(scenario.Names()) {
		t.Fatalf("%d families, want %d", len(fams), len(scenario.Names()))
	}
	for _, f := range fams {
		if f.Name == "" || f.Desc == "" {
			t.Errorf("family %+v missing name or desc", f)
		}
	}
}

// TestHTTPHealthzReportsPeerHealth: /v1/healthz exposes each remote
// peer's breaker state, so an operator can see a down worker (and when
// it will be re-probed) without grepping logs.
func TestHTTPHealthzReportsPeerHealth(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 1, Peers: []string{"http://peer.invalid:7"}, FailThreshold: 3})
	h := m.handles[1] // handle 0 is the local pool
	for i := 0; i < 3; i++ {
		m.report(h, errors.New("dial tcp: connection refused"))
	}
	var health struct {
		OK    bool         `json:"ok"`
		Peers []PeerStatus `json:"peers"`
	}
	if code := getJSON(t, srv.URL+"/v1/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if len(health.Peers) != 1 {
		t.Fatalf("healthz lists %d peers, want 1: %+v", len(health.Peers), health.Peers)
	}
	p := health.Peers[0]
	if p.Peer != "peer http://peer.invalid:7" {
		t.Errorf("peer name %q", p.Peer)
	}
	if p.State != "down" || p.ConsecutiveFails != 3 {
		t.Errorf("peer reported %s after %d failures, want down after 3", p.State, p.ConsecutiveFails)
	}
	if !strings.Contains(p.LastError, "connection refused") {
		t.Errorf("last_error %q does not carry the failure cause", p.LastError)
	}
	if p.NextProbeSec <= 0 {
		t.Errorf("down peer advertises next_probe_sec %v, want a positive backoff", p.NextProbeSec)
	}
}

// TestHTTPJobsList covers GET /v1/jobs: every submitted job appears with
// state, hash and progress, in-flight entries before finished ones.
func TestHTTPJobsList(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	var ids []string
	for _, seed := range []uint64{41, 42} {
		sj, err := tinySpec(seed).CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		st, code := postJob(t, srv.URL, fmt.Sprintf(`{"spec": %s}`, sj))
		if code != http.StatusAccepted {
			t.Fatalf("POST: status %d", code)
		}
		ids = append(ids, st.ID)
		pollDone(t, srv.URL, st.ID)
	}
	var list []Status
	if code := getJSON(t, srv.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/jobs: status %d", code)
	}
	if len(list) != len(ids) {
		t.Fatalf("listing has %d jobs, want %d", len(list), len(ids))
	}
	seen := map[string]bool{}
	for _, st := range list {
		seen[st.ID] = true
		if st.State != "done" {
			t.Errorf("job %s listed as %q, want done", st.ID, st.State)
		}
		if st.CellsTotal == 0 || st.CellsDone != st.CellsTotal {
			t.Errorf("job %s listed with progress %d/%d", st.ID, st.CellsDone, st.CellsTotal)
		}
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("job %s missing from listing", id)
		}
	}
}

// TestHTTPFamiliesSorted pins the stable-response contract: families come
// back sorted by name.
func TestHTTPFamiliesSorted(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	var fams []FamilyInfo
	if code := getJSON(t, srv.URL+"/v1/families", &fams); code != http.StatusOK {
		t.Fatalf("families status %d", code)
	}
	for i := 1; i < len(fams); i++ {
		if fams[i-1].Name >= fams[i].Name {
			t.Fatalf("families out of order: %q before %q", fams[i-1].Name, fams[i].Name)
		}
	}
}

// TestHTTPShardErrors covers the worker-facing endpoint's refusal paths.
func TestHTTPShardErrors(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	sj, err := tinySpec(51).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/shards", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"not json":      {`hello`, http.StatusBadRequest},
		"no cells":      {fmt.Sprintf(`{"spec": %s, "cells": []}`, sj), http.StatusBadRequest},
		"bad spec":      {`{"spec": {"workload": {"kind": "synthetic"}, "policies": []}, "cells": [{"policy":0,"point":0,"rep":0,"hash":"x"}]}`, http.StatusBadRequest},
		"out of grid":   {fmt.Sprintf(`{"spec": %s, "cells": [{"policy":9,"point":0,"rep":0,"hash":"x"}]}`, sj), http.StatusBadRequest},
		"hash mismatch": {fmt.Sprintf(`{"spec": %s, "cells": [{"policy":0,"point":0,"rep":0,"hash":"deadbeef"}]}`, sj), http.StatusConflict},
	} {
		if code := post(tc.body); code != tc.want {
			t.Errorf("%s: status %d, want %d", name, code, tc.want)
		}
	}
}

// TestRequestLogging checks the middleware emits one structured line per
// request carrying the request ID, and none — at any level — for the scrape
// endpoints (/v1/healthz, /metrics), so the log stays quiet under monitoring
// polls.
func TestRequestLogging(t *testing.T) {
	m := NewManager(Config{})
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(syncWriter{&mu, &buf}, &slog.HandlerOptions{Level: slog.LevelDebug}))
	srv := httptest.NewServer(m.Handler(logger))
	defer srv.Close()
	for _, path := range []string{"/v1/healthz", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Request-ID") == "" {
			t.Fatalf("GET %s: status %d, X-Request-ID %q", path, resp.StatusCode, resp.Header.Get("X-Request-ID"))
		}
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if out != "" {
		t.Errorf("scrape endpoints were logged: %q", out)
	}
	getJSON(t, srv.URL+"/v1/jobs", nil)
	mu.Lock()
	out = buf.String()
	mu.Unlock()
	for _, want := range []string{"level=INFO", "method=GET", "path=/v1/jobs", "status=200", "dur_ms=", "request_id="} {
		if !strings.Contains(out, want) {
			t.Errorf("request log %q missing %q", out, want)
		}
	}
}

type syncWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// resultDocRef is the result encoder GET /v1/results used before a job's
// document was built once and compactly — per request, indented, with the
// run's duration in the body — kept verbatim as the oracle: the served bytes
// must be exactly this document compacted, less elapsed_sec.
func resultDocRef(t *testing.T, job *Job) []byte {
	t.Helper()
	res, fprint, elapsed, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, len(res.Points))
	for i, pt := range res.Points {
		labels[i] = pt.Label
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Hash        string      `json:"hash"`
		Name        string      `json:"name"`
		Topo        string      `json:"topo"`
		Policies    []string    `json:"policies"`
		Points      []string    `json:"points"`
		Throughputs [][]float64 `json:"throughputs"`
		Fingerprint string      `json:"fingerprint"`
		ElapsedSec  float64     `json:"elapsed_sec"`
	}{
		Hash:        job.Hash,
		Name:        res.Name,
		Topo:        res.Topo.String(),
		Policies:    res.Policies,
		Points:      labels,
		Throughputs: res.Throughputs(),
		Fingerprint: fprint,
		ElapsedSec:  elapsed.Seconds(),
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var elapsedSecField = regexp.MustCompile(`,"elapsed_sec":[^,}]*}$`)

// checkResultDocument holds one served result to the oracle: byte-equal to
// the compacted reference without elapsed_sec, and carrying the fingerprint
// Job.Result renders (as JSON delivers it: one U+FFFD per invalid byte).
func checkResultDocument(t *testing.T, job *Job, served []byte) {
	t.Helper()
	var want bytes.Buffer
	if err := json.Compact(&want, resultDocRef(t, job)); err != nil {
		t.Fatal(err)
	}
	if !elapsedSecField.Match(want.Bytes()) {
		t.Fatalf("reference document does not end in elapsed_sec: …%s", want.Bytes()[max(want.Len()-60, 0):])
	}
	if wantDoc := elapsedSecField.ReplaceAll(want.Bytes(), []byte("}")); !bytes.Equal(served, wantDoc) {
		i := 0
		for i < len(served) && i < len(wantDoc) && served[i] == wantDoc[i] {
			i++
		}
		lo := max(i-40, 0)
		t.Fatalf("served document diverges from the compacted reference at byte %d (%d vs %d bytes):\n got  …%q\n want …%q",
			i, len(served), len(wantDoc), served[lo:min(i+40, len(served))], wantDoc[lo:min(i+40, len(wantDoc))])
	}
	var res ResultResponse
	if err := json.Unmarshal(served, &res); err != nil {
		t.Fatal(err)
	}
	if _, fp, _, _ := job.Result(); res.Fingerprint != string([]rune(fp)) {
		t.Error("decoded fingerprint differs from Job.Result's")
	}
}

// cacheDoneJob files a hand-built finished job, the way execute leaves one.
func cacheDoneJob(m *Manager, hash string, res *scenario.Summary) *Job {
	j := &Job{Hash: hash, result: res, done: make(chan struct{}), created: time.Now()}
	j.doc, j.docErr = resultDocument(hash, res)
	j.state.Store(int32(stateDone))
	close(j.done)
	m.mu.Lock()
	m.jobBytes += int64(len(j.doc))
	m.cache.Add(hash, j)
	m.mu.Unlock()
	return j
}

// bodyWriter is the cheapest http.ResponseWriter: it keeps the status, the
// headers and the very slice the handler wrote.
type bodyWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *bodyWriter) Header() http.Header  { return w.h }
func (w *bodyWriter) WriteHeader(code int) { w.code = code }
func (w *bodyWriter) Write(p []byte) (int, error) {
	w.body = p
	return len(p), nil
}

// quietHandler is the service's handler with request logging switched off.
func quietHandler(m *Manager) http.Handler {
	return m.Handler(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1})))
}

func getResult(h http.Handler, hash string) *bodyWriter {
	w := &bodyWriter{h: http.Header{}}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/results/"+hash, nil))
	return w
}

// TestResultDocumentMatchesReference: what GET /v1/results serves is the
// parent's document, compacted and without elapsed_sec, for every
// registered family, a distributed spec, and seeded results no simulation
// produces (labels with quotes, newlines, HTML and invalid UTF-8).
func TestResultDocumentMatchesReference(t *testing.T) {
	m := NewManager(Config{})
	h := quietHandler(m)
	specs := map[string]scenario.Spec{
		"heatdist": {
			Name:     "doc-ref-heatdist",
			Platform: scenario.PlatformSpec{Preset: "haswell-node"},
			Workload: scenario.WorkloadSpec{Kind: scenario.HeatDist, Heat: workloads.HeatDistConfig{Nodes: 2, Iters: 6}},
			Policies: core.All(),
			Reps:     2,
			Seed:     11,
		},
	}
	for _, name := range scenario.Names() {
		f, _ := scenario.Lookup(name)
		specs[name] = f.Spec(0.05)
	}
	for name, spec := range specs {
		j, _, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		waitDone(t, j)
		if j.loadState() != stateDone {
			t.Fatalf("%s: job %s", name, j.loadState())
		}
		w := getResult(h, j.Hash)
		if w.code != http.StatusOK {
			t.Fatalf("%s: GET result: status %d: %s", name, w.code, w.body)
		}
		checkResultDocument(t, j, w.body)
	}

	rng := rand.New(rand.NewSource(20200817))
	labels := []string{"", "P2", "a/b", `"quoted"`, `back\slash`, "<b>&amp;</b>", "ünïcödé-标签", "100%d",
		"tab\there", "new\nline", " sep", "\xff\xfe", "half\xe6\xa0"}
	label := func() string { return labels[rng.Intn(len(labels))] }
	for trial := 0; trial < 300; trial++ {
		res := &scenario.Summary{Name: label(), Topo: topology.TX2(), Reps: 1 + rng.Intn(2)}
		for pi := rng.Intn(4); pi > 0; pi-- {
			res.Policies = append(res.Policies, label())
		}
		for xi := rng.Intn(4); xi > 0; xi-- {
			res.Points = append(res.Points, scenario.Point{Label: label()})
		}
		res.Runs = make([]scenario.RunSummary, len(res.Policies)*len(res.Points)*res.Reps)
		for i := range res.Runs {
			rm := scenario.RunMetrics{
				Seed: rng.Uint64(), Throughput: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)),
				Makespan: rng.Float64(), TasksDone: rng.Int63(), CoreBusy: []float64{rng.Float64(), 0},
			}
			res.Runs[i] = rm.Summary()
		}
		j := cacheDoneJob(m, fmt.Sprintf("hostile-%d", trial), res)
		w := getResult(h, j.Hash)
		if w.code != http.StatusOK {
			t.Fatalf("trial %d: status %d: %s", trial, w.code, w.body)
		}
		checkResultDocument(t, j, w.body)
	}
}

// TestResultGetIsAByteWrite: a GET of a finished job writes the kept bytes
// — the same slice every time, under 2 KB whatever the grid, because the
// document carries a digest and not the fingerprint text — under a strong
// ETag that turns a conditional re-fetch into a 304, and what a GET
// allocates does not depend on the document.
func TestResultGetIsAByteWrite(t *testing.T) {
	m := NewManager(Config{})
	h := quietHandler(m)
	var perGet []float64
	for _, family := range []string{"scaleout-32", "burst-sweep"} { // 8 and 21 cells; 119 KB and 520 KB of text
		f, _ := scenario.Lookup(family)
		j, _, err := m.Submit(f.Spec(0.05))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		first, second := getResult(h, j.Hash), getResult(h, j.Hash)
		if first.code != http.StatusOK || len(first.body) == 0 || len(first.body) >= 2<<10 {
			t.Fatalf("%s: status %d, %d bytes; want a document under 2 KB", family, first.code, len(first.body))
		}
		if &first.body[0] != &second.body[0] || len(first.body) != len(second.body) {
			t.Errorf("%s: two GETs wrote different slices", family)
		}
		if got, want := first.h.Get("Content-Length"), fmt.Sprint(len(first.body)); got != want {
			t.Errorf("%s: Content-Length %q, want %s", family, got, want)
		}
		etag := first.h.Get("ETag")
		if etag != `"`+j.Hash+`"` {
			t.Errorf("%s: ETag %q, want the quoted job hash", family, etag)
		}
		for _, inm := range []string{etag, "W/" + etag, `"other", ` + etag, "*"} {
			w := &bodyWriter{h: http.Header{}}
			req := httptest.NewRequest(http.MethodGet, "/v1/results/"+j.Hash, nil)
			req.Header.Set("If-None-Match", inm)
			h.ServeHTTP(w, req)
			if w.code != http.StatusNotModified || w.body != nil || w.h.Get("ETag") != etag {
				t.Errorf("%s: If-None-Match %s: status %d, %d body bytes, ETag %q; want a bare 304", family, inm, w.code, len(w.body), w.h.Get("ETag"))
			}
		}
		// The handler itself, below the request log and the mux (their
		// cost is every endpoint's, and not the document's).
		req := httptest.NewRequest(http.MethodGet, "/v1/results/"+j.Hash, nil)
		req.SetPathValue("hash", j.Hash)
		req.Header.Set("If-None-Match", `"someone-else"`)
		w := &bodyWriter{h: http.Header{}}
		perGet = append(perGet, testing.AllocsPerRun(50, func() {
			clear(w.h)
			m.handleResult(w, req)
		}))
		if w.code != http.StatusOK || &w.body[0] != &first.body[0] {
			t.Errorf("%s: a non-matching If-None-Match did not get the document", family)
		}
	}
	if perGet[0] != perGet[1] || perGet[0] > 16 {
		t.Errorf("a result GET allocates %.0f times for the 8-cell job and %.0f for the 21-cell one, want the same and <= 16", perGet[0], perGet[1])
	}
}

// TestJobKeepsOneRendering: a cached job holds its result document — which
// names the result by Job.Result's 64-hex fingerprint — and no rendering of
// the fingerprint text: no string field of a Job is long enough to be one.
func TestJobKeepsOneRendering(t *testing.T) {
	m := NewManager(Config{})
	f, _ := scenario.Lookup("scaleout-32")
	j, _, err := m.Submit(f.Spec(0.05))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	_, fp, _, _ := j.Result()
	if len(fp) != 64 || !bytes.Contains(j.doc, []byte(`"fingerprint":"`+fp+`"`)) {
		t.Fatalf("the %d-byte document does not hold the fingerprint %q", len(j.doc), fp)
	}
	v := reflect.ValueOf(j).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.String && f.Len() > 256 {
			t.Errorf("Job.%s holds a %d-byte string beside the document", v.Type().Field(i).Name, f.Len())
		}
	}
}

// TestFingerprintTextRoute: GET /v1/results/{hash}/fingerprint spells the
// digest out — the text a direct scenario.Run of the spec renders, as
// text/plain — and answers for an unfinished, failed or unknown job what the
// result route answers.
func TestFingerprintTextRoute(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	h := quietHandler(m)
	get := func(hash string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/results/"+hash+"/fingerprint", nil))
		return w
	}
	j, _, err := m.Submit(tinySpec(79))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	want := scenario.MustRun(tinySpec(79)).FingerprintText()
	m.mu.Lock()
	lruBefore := m.cells.Keys()
	m.mu.Unlock()
	runs, hits, misses := m.cellRuns(), m.mx.cellHits.Value(), m.mx.cellMisses.Value()
	w := get(j.Hash)
	if w.Code != http.StatusOK || !strings.HasPrefix(w.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("status %d, Content-Type %q; want 200 text/plain", w.Code, w.Header().Get("Content-Type"))
	}
	if got := w.Body.String(); !strings.HasPrefix(got, "scenario=") || got != want {
		t.Errorf("served text (%d bytes) is not the direct run's FingerprintText (%d bytes)", len(got), len(want))
	}
	// The text is a replay: its re-runs are no cell runs, and the cell cache
	// neither counts nor reorders anything for it.
	m.mu.Lock()
	lruAfter := m.cells.Keys()
	m.mu.Unlock()
	if m.cellRuns() != runs || m.mx.cellHits.Value() != hits || m.mx.cellMisses.Value() != misses || !slices.Equal(lruAfter, lruBefore) {
		t.Errorf("the replay moved the cell counters (runs %d→%d, hits %d→%d, misses %d→%d) or the LRU order",
			runs, m.cellRuns(), hits, m.mx.cellHits.Value(), misses, m.mx.cellMisses.Value())
	}
	if w := get("deadbeef"); w.Code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", w.Code)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	m.local.runCell = func(*scenario.Plan, *scenario.CellState, scenario.CellJob) (scenario.RunMetrics, error) {
		close(entered)
		<-release
		return scenario.RunMetrics{}, errors.New("engine exploded")
	}
	spec := tinySpec(80)
	spec.Policies, spec.Points = spec.Policies[:1], spec.Points[:1] // one cell: runCell runs once
	j, _, err = m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	if w := get(j.Hash); w.Code != http.StatusConflict {
		t.Errorf("running job: status %d, want 409", w.Code)
	}
	close(release)
	waitDone(t, j)
	if w := get(j.Hash); w.Code != http.StatusUnprocessableEntity || !strings.Contains(w.Body.String(), "engine exploded") {
		t.Errorf("failed job: status %d, body %q; want 422 with the engine error", w.Code, w.Body)
	}
}

// TestFingerprintReplayNamesTamperedCell: the replay behind GET
// /v1/results/{hash}/fingerprint checks every re-run digest against the one
// the job holds. A cached digest changed in place — a bit flip, or a peer that
// lied — answers 500 naming the first such cell by index, label and hash,
// never a text that disagrees with the job's fingerprint.
func TestFingerprintReplayNamesTamperedCell(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	h := quietHandler(m)
	j, _, err := m.Submit(tinySpec(84))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	plan, err := scenario.NewPlan(tinySpec(84))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 1} {
		j.result.Runs[k].Digest[31] ^= 0x80
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/results/"+j.Hash+"/fingerprint", nil))
		want := fmt.Sprintf("cell %d (%s, hash %.12s)", k, plan.CellLabel(plan.Cells[k]), plan.Cells[k].Hash)
		if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), want) {
			t.Errorf("cell %d tampered: status %d, %s; want 500 naming %q", k, w.Code, w.Body, want)
		}
	}
}

// TestUnencodableResultIs500: a result encoding/json refuses (NaN, ±Inf)
// answers 500 naming the job and the encoder's complaint — not the 200 with
// an empty body an encoder writing straight to the wire produced — and a
// failed job answers 422 without ever building a document.
func TestUnencodableResultIs500(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	h := quietHandler(m)
	for name, tput := range map[string]float64{"nan": math.NaN(), "inf": math.Inf(1)} {
		res := &scenario.Summary{
			Name: "unencodable", Topo: topology.TX2(), Policies: []string{"RWS"},
			Points: []scenario.Point{{Label: "P2"}}, Reps: 1,
			Runs: []scenario.RunSummary{{Throughput: tput}},
		}
		w := getResult(h, cacheDoneJob(m, "unencodable-"+name, res).Hash)
		var reply struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.body, &reply); err != nil {
			t.Fatalf("%s: status %d, body %q: %v", name, w.code, w.body, err)
		}
		if w.code != http.StatusInternalServerError ||
			!strings.Contains(reply.Error, "unencodable-"+name) || !strings.Contains(reply.Error, "unsupported value") {
			t.Errorf("%s: status %d, error %q; want a 500 naming the job and json's unsupported value", name, w.code, reply.Error)
		}
		if w.h.Get("ETag") != "" {
			t.Errorf("%s: an error reply carries an ETag", name)
		}
	}

	m.local.runCell = func(*scenario.Plan, *scenario.CellState, scenario.CellJob) (scenario.RunMetrics, error) {
		return scenario.RunMetrics{}, errors.New("engine exploded")
	}
	j, _, err := m.Submit(tinySpec(78))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.doc != nil || j.docErr != nil {
		t.Error("a failed job built a result document")
	}
	if w := getResult(h, j.Hash); w.code != http.StatusUnprocessableEntity || !bytes.Contains(w.body, []byte("engine exploded")) {
		t.Errorf("failed job: status %d, body %q; want 422 with the engine error", w.code, w.body)
	}
	if err := m.Shutdown(context.Background()); err != nil { // execute has returned
		t.Fatal(err)
	}
}
