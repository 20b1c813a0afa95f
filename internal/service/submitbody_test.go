package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"dynasym/internal/scenario"
)

// TestSubmitBodyFieldsMatchSubmitRequest: handleSubmit decodes a POST
// /v1/jobs body into submitBody, while SubmitRequest is the shape clients
// and the benchmark compile against. A field added to one and forgotten in
// the other would make the daemon refuse (or ignore) what the documented
// shape allows.
func TestSubmitBodyFieldsMatchSubmitRequest(t *testing.T) {
	tags := func(v any) []string {
		ty := reflect.TypeOf(v)
		out := make([]string, ty.NumField())
		for i := range out {
			out[i] = ty.Field(i).Tag.Get("json")
		}
		return out
	}
	if body, req := tags(submitBody{}), tags(SubmitRequest{}); !reflect.DeepEqual(body, req) {
		t.Errorf("submitBody declares JSON fields %q, SubmitRequest %q", body, req)
	}
}

// twoStepSubmission is the reference reading of a POST /v1/jobs body: into
// SubmitRequest, the spec kept as raw bytes, then the spec by ParseSpec —
// what handleSubmit did before it decoded a body in one pass.
func twoStepSubmission(body []byte) (scenario.Spec, error) {
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return scenario.Spec{}, fmt.Errorf("decode request: %w", err)
	}
	switch {
	case req.Family != "" && len(req.Spec) > 0:
		return scenario.Spec{}, errors.New("give either family or spec, not both")
	case req.Family != "":
		f, ok := scenario.Lookup(req.Family)
		if !ok {
			return scenario.Spec{}, fmt.Errorf("service: unknown scenario family %q (known: %v)", req.Family, scenario.Names())
		}
		spec := f.Spec(req.Scale)
		if req.Seed != nil {
			spec.Seed = *req.Seed
		}
		return spec, nil
	case len(req.Spec) > 0:
		return scenario.ParseSpec(req.Spec)
	default:
		return scenario.Spec{}, errors.New("give a family or a spec")
	}
}

// sameOrRefused fails t unless parseSubmission refuses body, or accepts it as
// a spec with the hash the reference reading gives it; it reports whether
// parseSubmission accepted.
func sameOrRefused(t *testing.T, body []byte) bool {
	t.Helper()
	got, err := parseSubmission(body)
	if err != nil {
		return false
	}
	want, wantErr := twoStepSubmission(body)
	if wantErr != nil {
		t.Fatalf("body %q: one pass accepts it, the reference refuses it: %v", body, wantErr)
	}
	gh, gErr := got.Hash()
	wh, wErr := want.Hash()
	if gh != wh || (gErr == nil) != (wErr == nil) {
		t.Fatalf("body %q: one-pass spec hashes to %q (%v), two-step spec to %q (%v)", body, gh, gErr, wh, wErr)
	}
	return true
}

// TestParseSubmissionEdgeCases: bodies near the edges of the one pass — an
// empty spec beside a family, a family named "spec", a spec that is not an
// object, a spec with an unknown enum or field, trailing bytes — are accepted
// exactly when the reference reading accepts them, as the same spec.
func TestParseSubmissionEdgeCases(t *testing.T) {
	spec := specBody(t, tinySpec(5))
	canon := spec[len(`{"spec": `) : len(spec)-1]
	for _, body := range []string{
		spec,
		`{"family": "burst-sweep", "scale": 0.01, "seed": 3}`,
		`{"family": "burst-sweep", "spec": {}}`,
		`{"spec": ` + canon + `, "family": "spec"}`,
		`{"spec": 5}`,
		`{"spec": {"workload": {"kind": 5}, "policies": ["RWS"]}}`,
		`{"spec": {"workload": {"kind": "synthetic"}, "policies": ["RWS"], "bogus": 1}}`,
		`{"family": "burst-sweep"} trailing`,
	} {
		_, refErr := twoStepSubmission([]byte(body))
		if got := sameOrRefused(t, []byte(body)); got != (refErr == nil) {
			t.Errorf("body %q: one pass accepts it: %v; the reference refuses it: %v", body, got, refErr)
		}
	}
}

// TestRepeatedOrNullSpecRefused: a spec given twice, under any key
// encoding/json matches to "spec", or given as null, is a 400 that says so.
// The reference reading kept the last of two specs and read null as an empty
// document.
func TestRepeatedOrNullSpecRefused(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	spec := specBody(t, tinySpec(5))
	canon := spec[len(`{"spec": `) : len(spec)-1]
	for _, tc := range []struct {
		body string
		want error
	}{
		{`{"spec": null}`, errSpecNull},
		{`{"family": "burst-sweep", "spec": null}`, errSpecNull},
		{`{"spec": null, "spec": ` + canon + `}`, errSpecNull},
		{`{"spec": {"name": "a"}, "spec": ` + canon + `}`, errSpecRepeated},
		{`{"spec": ` + canon + `, "spec": {"seed": 9}}`, errSpecRepeated},
		{`{"spec": ` + canon + `, "spec": null}`, errSpecRepeated},
		{`{"SPEC": ` + canon + `, "spec": {"seed": 9}}`, errSpecRepeated},
		{`{"spe\u0063": ` + canon + `, "spec": {"seed": 9}}`, errSpecRepeated},
		{`{"ſpec": ` + canon + `, "spec": {"seed": 9}}`, errSpecRepeated},
	} {
		if _, err := parseSubmission([]byte(tc.body)); !errors.Is(err, tc.want) {
			t.Errorf("body %.40q: error %v, want %v", tc.body, err, tc.want)
		}
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var msg struct{ Error string }
		_ = json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.Error, tc.want.Error()) {
			t.Errorf("body %.40q: status %d %q, want 400 naming %q", tc.body, resp.StatusCode, msg.Error, tc.want)
		}
	}
}

// FuzzSubmitBody holds the one-pass decode of POST /v1/jobs to the reference
// reading: for any body, it refuses it with a 400 or accepts the spec the
// reference reads, by Hash(). The corpus is every TestHTTPErrors body plus
// every registered family, as a raw spec and by name.
func FuzzSubmitBody(f *testing.F) {
	for _, tc := range httpErrorBodies {
		f.Add([]byte(tc.body))
	}
	for _, name := range scenario.Names() {
		fam, _ := scenario.Lookup(name)
		canon, err := fam.Spec(0.05).CanonicalJSON()
		if err != nil {
			f.Fatalf("family %s: %v", name, err)
		}
		f.Add([]byte(`{"spec":` + string(canon) + `}`))
		f.Add([]byte(fmt.Sprintf(`{"family":%q,"scale":0.05,"seed":7}`, name)))
		f.Add([]byte(fmt.Sprintf(`{"family":%q,"scale":-1}`, name))) // refused: outside (0, 1]
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sameOrRefused(t, body)
	})
}
