package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// The client contract, identical on every commit: one keep-alive
// connection per client; a job is POST /v1/jobs, then GET /v1/jobs/{id}
// until "done" (the POST reply is the first status; between polls the
// client sleeps a tenth of the time the job has taken so far, at least
// 100µs and at most 2ms), then GET /v1/results/{id}. The stop-watch runs
// from just before the POST is sent until the last result byte is read;
// decoding and verifying the result happen after it stops.
const (
	minPollSleep = 100 * time.Microsecond
	maxPollSleep = 2 * time.Millisecond
	jobTimeout   = 60 * time.Second
)

// jobStatus is the part of the service's job status the client acts on.
type jobStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	CellsTotal int64  `json:"cells_total"`
	CellHits   int64  `json:"cell_hits"`
	CellMisses int64  `json:"cell_misses"`
	Error      string `json:"error"`
}

// jobOutcome is what one job cost and returned.
type jobOutcome struct {
	latency  time.Duration
	postCode int       // 202 new job, 200 absorbed by a known one
	status   jobStatus // the status that reported "done"
	result   []byte    // GET /v1/results body

	requests  int // HTTP requests made
	reqBytes  int // POST body bytes sent
	resBytes  int // result body bytes read
	pollSleep time.Duration
	retried   bool // the result GET hit the done-before-result race once

	statusGets int // polls after the POST
	statusDur  time.Duration
	resultDur  time.Duration

	err error // transport error, failed job, timeout: the job counts as failed
}

// client drives jobs over one keep-alive connection.
type client struct {
	base string
	hc   *http.Client
	// rec, when non-nil, records a span per request under the job's span
	// (traced ledger legs only).
	rec *spanRec
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: jobTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply, so the connection goes
// back to the pool for the next request.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// get fetches a path outside any job (metrics scrapes, health).
func (c *client) get(path string) ([]byte, error) {
	code, b, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, code, firstLine(b))
	}
	return b, nil
}

// runJob submits one job and sees it through to its result. job tags the
// recorded spans.
func (c *client) runJob(job int, body []byte) (out jobOutcome) {
	jobSpan := c.rec.begin("loadgen", "job", job, -1)
	start := time.Now()
	defer func() {
		out.latency = time.Since(start)
		c.rec.end(jobSpan)
	}()

	sp := c.rec.begin("service", "POST /v1/jobs", job, jobSpan)
	code, b, err := c.do(http.MethodPost, "/v1/jobs", body)
	c.rec.end(sp)
	out.requests++
	out.reqBytes = len(body)
	if err != nil {
		out.err = fmt.Errorf("submit: %w", err)
		return out
	}
	out.postCode = code
	if code != http.StatusAccepted && code != http.StatusOK {
		out.err = fmt.Errorf("submit: status %d: %s", code, firstLine(b))
		return out
	}
	if err := json.Unmarshal(b, &out.status); err != nil {
		out.err = fmt.Errorf("submit: decode status: %w", err)
		return out
	}

	for out.status.State != "done" {
		if out.status.State == "failed" {
			out.err = fmt.Errorf("job %.12s failed: %s", out.status.ID, out.status.Error)
			return out
		}
		elapsed := time.Since(start)
		if elapsed > jobTimeout {
			out.err = fmt.Errorf("job %.12s still %s after %s", out.status.ID, out.status.State, jobTimeout)
			return out
		}
		nap := min(max(elapsed/10, minPollSleep), maxPollSleep)
		time.Sleep(nap)
		out.pollSleep += nap

		sp := c.rec.begin("service", "GET /v1/jobs/{id}", job, jobSpan)
		t0 := time.Now()
		code, b, err := c.do(http.MethodGet, "/v1/jobs/"+out.status.ID, nil)
		out.statusDur += time.Since(t0)
		c.rec.end(sp)
		out.statusGets++
		out.requests++
		if err != nil {
			out.err = fmt.Errorf("poll: %w", err)
			return out
		}
		if code != http.StatusOK {
			out.err = fmt.Errorf("poll: status %d: %s", code, firstLine(b))
			return out
		}
		out.status = jobStatus{}
		if err := json.Unmarshal(b, &out.status); err != nil {
			out.err = fmt.Errorf("poll: decode status: %w", err)
			return out
		}
	}

	// The service publishes "done" a moment before the result becomes
	// readable (Manager.execute stores the state before closing the job's
	// done channel), so a fast poller can be told 500 "job ... is done".
	// That is a known finding, tolerated here: retry once, after the shortest
	// poll sleep, and count it.
	for attempt := 0; ; attempt++ {
		sp := c.rec.begin("service", "GET /v1/results/{id}", job, jobSpan)
		t0 := time.Now()
		code, b, err := c.do(http.MethodGet, "/v1/results/"+out.status.ID, nil)
		out.resultDur += time.Since(t0)
		c.rec.end(sp)
		out.requests++
		if err != nil {
			out.err = fmt.Errorf("result: %w", err)
			return out
		}
		if code == http.StatusOK {
			out.result = b
			out.resBytes = len(b)
			return out
		}
		if attempt == 0 && code == http.StatusInternalServerError && strings.Contains(string(b), "is done") {
			out.retried = true
			time.Sleep(minPollSleep) // one more poll interval: an immediate retry can lose the same race
			out.pollSleep += minPollSleep
			continue
		}
		out.err = fmt.Errorf("result: status %d: %s", code, firstLine(b))
		return out
	}
}

// firstLine trims a reply body to something that fits an error message.
func firstLine(b []byte) string {
	s := strings.Join(strings.Fields(string(b)), " ")
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	return s
}

// fingerprintOf extracts the result document's fingerprint.
func fingerprintOf(result []byte) (string, error) {
	var doc struct {
		Fingerprint *string `json:"fingerprint"`
	}
	if err := json.Unmarshal(result, &doc); err != nil {
		return "", fmt.Errorf("decode result: %w", err)
	}
	if doc.Fingerprint == nil {
		return "", fmt.Errorf("result has no fingerprint field")
	}
	return *doc.Fingerprint, nil
}
