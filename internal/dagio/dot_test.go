package dagio

import (
	"strings"
	"testing"
)

func TestParseDOTFeatures(t *testing.T) {
	src := `
	/* block
	   comment */
	strict digraph "my graph" {
	  rankdir = LR;           // graph attribute: ignored
	  node [work=100, type="base"];
	  a [work=1e6, type=potrf, high=true, color="red"];
	  b [work="2.5e6", bytes=512]; # quoted numeral, trailing comment
	  a -> b -> c;
	  a -> c [weight=3];
	  d;                       // bare node with current defaults
	  d -> c
	}
	`
	g, err := ParseDOT([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "my graph" {
		t.Errorf("graph name %q, want %q", g.Name, "my graph")
	}
	byID := map[string]Node{}
	for _, n := range g.Nodes {
		byID[n.ID] = n
	}
	if len(byID) != 4 {
		t.Fatalf("parsed %d nodes, want 4: %+v", len(byID), g.Nodes)
	}
	if n := byID["a"]; n.Work != 1e6 || n.Type != "potrf" || !n.High {
		t.Errorf("node a = %+v", n)
	}
	if n := byID["b"]; n.Work != 2.5e6 || n.Bytes != 512 || n.Type != "base" {
		t.Errorf("node b = %+v (defaults must fill unset attrs)", n)
	}
	if n := byID["c"]; n.Work != 100 || n.Type != "base" {
		t.Errorf("implicit node c = %+v (must inherit node defaults)", n)
	}
	if n := byID["d"]; n.Work != 100 {
		t.Errorf("bare node d = %+v", n)
	}
	if len(g.Edges) != 4 {
		t.Fatalf("parsed %d edges, want 4: %+v", len(g.Edges), g.Edges)
	}
}

// GraphViz merge semantics: re-declaring a node updates only the
// attributes the later statement names — it must not silently reset
// earlier explicit attributes to the defaults (a published file that
// declares a node and styles it later would otherwise lose its cost
// and priority marks).
func TestParseDOTRedeclarationMerges(t *testing.T) {
	src := `digraph g {
	  node [work=1e6];
	  a [work=5e6, high=true];
	  a -> b;
	  a [type="styled-later"];  // e.g. a trailing style-only statement
	}`
	g, err := ParseDOT([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if n.ID == "a" {
			if n.Work != 5e6 || !n.High || n.Type != "styled-later" {
				t.Fatalf("re-declared node a = %+v, want work=5e6 high=true type=styled-later", n)
			}
		}
	}
}

// NaN/Inf costs must be rejected by name, not parsed into the machine
// model or left to fail canonical JSON encoding with an opaque error.
func TestNonFiniteWorkRejected(t *testing.T) {
	for _, src := range []string{
		`digraph g { a [work=nan]; }`,
		`digraph g { a [work=inf]; }`,
		`digraph g { a [work=1, bytes=nan]; }`,
		`digraph g { a [work=-inf]; }`,
	} {
		if _, err := ParseDOT([]byte(src)); err == nil {
			t.Errorf("ParseDOT accepted non-finite cost: %q", src)
		} else if !strings.Contains(err.Error(), `"a"`) {
			t.Errorf("non-finite error %q does not name the node", err)
		}
	}
	if _, err := parseJSON([]byte(`{"nodes":[{"id":"a","work":1e309}]}`)); err == nil {
		t.Error("ParseJSON accepted overflowing work")
	}
}

// A DOT file and the same statements in reverse order must parse to the
// same digest — the property the scenario hash relies on.
func TestParseDOTOrderInvariance(t *testing.T) {
	fwd := `digraph g {
	  a [work=10]; b [work=20]; c [work=30];
	  a -> b; a -> c; b -> c;
	}`
	rev := `digraph g {
	  c [work=30]; b [work=20]; a [work=10];
	  b -> c; a -> c; a -> b;
	}`
	ga, err := ParseDOT([]byte(fwd))
	if err != nil {
		t.Fatal(err)
	}
	gb, err := ParseDOT([]byte(rev))
	if err != nil {
		t.Fatal(err)
	}
	da, _ := ga.Digest()
	db, _ := gb.Digest()
	if da != db {
		t.Fatalf("declaration order changed the digest: %s vs %s", da, db)
	}
}

func TestParseDOTErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"not a digraph", `graph g { a -- b }`, "digraph"},
		{"undirected edge", `digraph g { a [work=1]; b [work=1]; a -- b; }`, "--"},
		{"subgraph", `digraph g { subgraph s { a } }`, "subgraph"},
		{"truncated", `digraph g { a [work=1`, "end of input"},
		{"trailing", `digraph g { a [work=1]; } digraph h {}`, "trailing"},
		{"bad work", `digraph g { a [work=heavy]; }`, "bad work"},
		{"bad high", `digraph g { a [work=1, high=maybe]; }`, "bad high"},
		{"missing work", `digraph g { a; }`, "non-positive or non-finite work"},
		{"cycle", `digraph g { a [work=1]; b [work=1]; a -> b; b -> a; }`, "cycle"},
		{"unterminated string", `digraph g { a [type="x }`, "unterminated"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseDOT([]byte(c.src))
			if err == nil {
				t.Fatalf("ParseDOT accepted %q", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestParseJSONStrictness(t *testing.T) {
	good := `{"name":"j","nodes":[{"id":"a","work":10},{"id":"b","work":5,"type":"t","high":true}],"edges":[{"from":"a","to":"b"}]}`
	g, err := parseJSON([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 2 || len(g.Edges) != 1 {
		t.Fatalf("parsed %d nodes / %d edges", len(g.Nodes), len(g.Edges))
	}
	for _, bad := range []string{
		`{"nodes":[{"id":"a","work":10,"wieght":3}]}`, // typo'd field
		`{"nodes":[{"id":"a","work":10}]} trailing`,
		`{"nodes":[{"id":"a","work":0}]}`,
		`{"nodes":[{"id":"a","work":1}],"edges":[{"from":"a","to":"nope"}]}`,
		`[1,2,3]`,
	} {
		if _, err := parseJSON([]byte(bad)); err == nil {
			t.Errorf("ParseJSON accepted %q", bad)
		}
	}
}

// DOT and JSON spellings of one graph are the same workload.
func TestDOTAndJSONAgree(t *testing.T) {
	dot := `digraph g { a [work=10, type="x", high=true]; b [work=20, bytes=5]; a -> b; }`
	jsn := `{"nodes":[{"id":"b","work":20,"bytes":5},{"id":"a","work":10,"type":"x","high":true}],"edges":[{"from":"a","to":"b"}]}`
	gd, err := ParseDOT([]byte(dot))
	if err != nil {
		t.Fatal(err)
	}
	gj, err := parseJSON([]byte(jsn))
	if err != nil {
		t.Fatal(err)
	}
	dd, _ := gd.Digest()
	dj, _ := gj.Digest()
	if dd != dj {
		t.Fatalf("DOT and JSON digests differ: %s vs %s", dd, dj)
	}
}

// FuzzParseDOT asserts the importer never panics: any input either
// parses into a graph that validates or returns an error.
func FuzzParseDOT(f *testing.F) {
	f.Add(DemoDOT)
	f.Add(`digraph g { a [work=1]; b [work=2]; a -> b; }`)
	f.Add(`strict digraph { node [work=1e6]; x -> y -> z }`)
	f.Add(`digraph g { a [work=1, high=true, type="q\"uoted"]; }`)
	f.Add(`digraph g { /* }`)
	f.Add(`digraph g { a [`)
	f.Add(`digraph g { a -> }`)
	f.Add("digraph g {\n# comment only\n}")
	f.Add(`-1e300`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseDOT([]byte(src))
		if err == nil {
			if verr := g.Validate(); verr != nil {
				t.Fatalf("ParseDOT returned an invalid graph (%v) for %q", verr, src)
			}
		}
	})
}

// FuzzParseJSON mirrors FuzzParseDOT for the JSON importer.
func FuzzParseJSON(f *testing.F) {
	f.Add(`{"nodes":[{"id":"a","work":10}]}`)
	f.Add(`{"nodes":[{"id":"a","work":10},{"id":"b","work":5}],"edges":[{"from":"a","to":"b"}]}`)
	f.Add(`{"nodes":[]}`)
	f.Add(`{`)
	f.Add(`null`)
	f.Add(`{"nodes":[{"id":"a","work":1e308}],"edges":[{"from":"a","to":"a"}]}`)
	f.Fuzz(func(t *testing.T, src string) {
		g, err := parseJSON([]byte(src))
		if err == nil {
			if verr := g.Validate(); verr != nil {
				t.Fatalf("parseJSON returned an invalid graph (%v) for %q", verr, src)
			}
		}
	})
}
