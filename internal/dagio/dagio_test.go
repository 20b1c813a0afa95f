package dagio

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// Two descriptions of the same graph — shuffled declarations, different
// source formats — must share a content Digest; any structural or cost
// change must break it.
func TestDigestInvariantUnderDeclarationOrder(t *testing.T) {
	a := &GraphSpec{
		Nodes: []Node{
			{ID: "a", Work: 1e6, Type: "x", High: true},
			{ID: "b", Work: 2e6, Bytes: 100},
			{ID: "c", Work: 3e6},
		},
		Edges: []Edge{{From: "a", To: "b"}, {From: "a", To: "c"}},
	}
	b := &GraphSpec{
		Name: "same-graph-other-file",
		Nodes: []Node{
			{ID: "c", Work: 3e6},
			{ID: "b", Work: 2e6, Bytes: 100},
			{ID: "a", Work: 1e6, Type: "x", High: true},
		},
		// Shuffled, with one duplicate edge that normalization drops.
		Edges: []Edge{{From: "a", To: "c"}, {From: "a", To: "b"}, {From: "a", To: "c"}},
	}
	da, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("same graph, different digests: %s vs %s", da, db)
	}
	mut := *a
	mut.Nodes = append([]Node(nil), a.Nodes...)
	mut.Nodes[1].Work = 2e6 + 1
	dm, err := mut.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if dm == da {
		t.Fatalf("work change did not change the digest")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		g    GraphSpec
		want string
	}{
		{"empty", GraphSpec{}, "no nodes"},
		{"dup node", GraphSpec{Nodes: []Node{{ID: "a", Work: 1}, {ID: "a", Work: 1}}}, `duplicate node "a"`},
		{"zero work", GraphSpec{Nodes: []Node{{ID: "a"}}}, "non-positive or non-finite work"},
		{"neg bytes", GraphSpec{Nodes: []Node{{ID: "a", Work: 1, Bytes: -1}}}, "negative or non-finite bytes"},
		{"unknown edge", GraphSpec{
			Nodes: []Node{{ID: "a", Work: 1}},
			Edges: []Edge{{From: "a", To: "zz"}},
		}, `unknown node "zz"`},
		{"self edge", GraphSpec{
			Nodes: []Node{{ID: "a", Work: 1}},
			Edges: []Edge{{From: "a", To: "a"}},
		}, "self-edge"},
		{"cycle", GraphSpec{
			Nodes: []Node{{ID: "a", Work: 1}, {ID: "b", Work: 1}, {ID: "c", Work: 1}},
			Edges: []Edge{{From: "a", To: "b"}, {From: "b", To: "c"}, {From: "c", To: "a"}},
		}, "cycle"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			err := c.g.Validate()
			if err == nil {
				t.Fatalf("Validate accepted a bad graph")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestBuildProducesRunnableGraph(t *testing.T) {
	g := Demo()
	dg, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p := dg.Parallelism(); p <= 1 {
		t.Fatalf("demo graph parallelism %v, want > 1 (0: cyclic)", p)
	}
	fz, err := dg.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(fz.AppendPending(nil)), len(g.Nodes); got != want {
		t.Fatalf("built graph has %d tasks, want %d", got, want)
	}
	// Distinct types map to distinct, deterministic PTT ids.
	ids := g.typeIDs()
	if len(ids) < 3 {
		t.Fatalf("demo graph has %d task types, want several", len(ids))
	}
	seen := map[int]string{}
	for ty, id := range ids {
		if prev, dup := seen[int(id)]; dup {
			t.Fatalf("types %q and %q share PTT id %d", prev, ty, id)
		}
		seen[int(id)] = ty
	}
}

func TestBuildRejectsInvalidGraph(t *testing.T) {
	g := &GraphSpec{
		Nodes: []Node{{ID: "a", Work: 1}, {ID: "b", Work: 1}},
		Edges: []Edge{{From: "a", To: "b"}, {From: "b", To: "a"}},
	}
	if _, err := g.Build(); err == nil {
		t.Fatal("Build accepted a cyclic graph")
	}
}

// The canonical encoding must round-trip exactly through the JSON importer
// (it is both the import schema and the encoding the scenario layer hashes).
func TestWireRoundTrip(t *testing.T) {
	g := Demo()
	b, err := json.Marshal(g.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	da, _ := g.Digest()
	db, _ := back.Digest()
	if da != db {
		t.Fatalf("wire round-trip changed the digest: %s vs %s", da, db)
	}
	if len(back.Nodes) != len(g.Nodes) || len(back.Edges) != len(g.Edges) {
		t.Fatalf("wire round-trip changed shape: %d/%d nodes, %d/%d edges",
			len(back.Nodes), len(g.Nodes), len(back.Edges), len(g.Edges))
	}
}

// The bundled example files must stay in sync with the embedded demo:
// all three spellings (DemoDOT, examples/dag/demo.dot, demo.json) are
// one graph and must share a Digest.
func TestExampleFilesMatchDemo(t *testing.T) {
	want, err := Demo().Digest()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"../../examples/dag/demo.dot", "../../examples/dag/demo.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("bundled example missing: %v", err)
		}
		g, err := parse(data, strings.TrimPrefix(strings.ToLower(path[strings.LastIndex(path, ".")+1:]), "."))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got, err := g.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s digest %s, want %s (bundled example drifted from dagio.DemoDOT)", path, got, want)
		}
	}
	if string(mustRead(t, "../../examples/dag/demo.dot")) != DemoDOT {
		t.Errorf("examples/dag/demo.dot bytes differ from dagio.DemoDOT")
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
