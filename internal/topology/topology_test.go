package topology

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	base := func() []Cluster {
		return []Cluster{
			{Name: "a", FirstCore: 0, NumCores: 2, Widths: []int{1, 2}, Speed: 1, BaseHz: 1e9, MemBandwidth: 1e10},
			{Name: "b", FirstCore: 2, NumCores: 4, Widths: []int{1, 2, 4}, Speed: 1, BaseHz: 1e9, MemBandwidth: 1e10},
		}
	}
	if _, err := New(base()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func([]Cluster) []Cluster
	}{
		{"empty", func([]Cluster) []Cluster { return nil }},
		{"gap", func(cs []Cluster) []Cluster { cs[1].FirstCore = 3; return cs }},
		{"zero cores", func(cs []Cluster) []Cluster { cs[0].NumCores = 0; return cs }},
		{"bad speed", func(cs []Cluster) []Cluster { cs[0].Speed = 0; return cs }},
		{"bad freq", func(cs []Cluster) []Cluster { cs[0].BaseHz = -1; return cs }},
		{"width too big", func(cs []Cluster) []Cluster { cs[0].Widths = []int{1, 4}; return cs }},
		{"width not divisor", func(cs []Cluster) []Cluster { cs[1].Widths = []int{1, 3}; return cs }},
		{"duplicate width", func(cs []Cluster) []Cluster { cs[0].Widths = []int{1, 2, 2}; return cs }},
		{"missing width 1", func(cs []Cluster) []Cluster { cs[0].Widths = []int{2}; return cs }},
		{"no memory bandwidth", func(cs []Cluster) []Cluster { cs[1].MemBandwidth = 0; return cs }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.mutate(base())); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestTX2Shape(t *testing.T) {
	p := TX2()
	if p.NumCores() != 6 {
		t.Fatalf("TX2 has %d cores, want 6", p.NumCores())
	}
	if p.NumClusters() != 2 {
		t.Fatalf("TX2 has %d clusters, want 2", p.NumClusters())
	}
	// Places: denver (C0,1),(C0,2),(C1,1); a57 (C2..5,1),(C2,2),(C4,2),(C2,4).
	if got := len(p.Places()); got != 10 {
		t.Fatalf("TX2 has %d places, want 10", got)
	}
	if p.FastestCluster() != 0 {
		t.Fatal("TX2 fastest cluster should be the Denver cluster (0)")
	}
	if w := maxWidth(p); w != 4 {
		t.Fatalf("TX2 max width %d, want 4", w)
	}
}

// maxWidth is the widest of p's places.
func maxWidth(p *Platform) int {
	w := 0
	for _, pl := range p.Places() {
		w = max(w, pl.Width)
	}
	return w
}

// localPlace returns the place of the given width among LocalPlaceIDs(core),
// the aligned places the schedulers' local search walks.
func localPlace(p *Platform, core, width int) (Place, bool) {
	for _, id := range p.LocalPlaceIDs(core) {
		if pl := p.Places()[id]; pl.Width == width {
			return pl, true
		}
	}
	return Place{}, false
}

// TestPlaceFor: the local place of a width holding a core is the aligned
// one, and a width the core's cluster lacks has none.
func TestPlaceFor(t *testing.T) {
	p := TX2()
	cases := []struct {
		core, width int
		wantLeader  int
		ok          bool
	}{
		{0, 1, 0, true},
		{1, 2, 0, true}, // aligned down to leader 0
		{3, 2, 2, true},
		{5, 4, 2, true},
		{0, 4, 0, false}, // denver has no width 4
		{2, 3, 0, false},
	}
	for _, tc := range cases {
		pl, ok := localPlace(p, tc.core, tc.width)
		if ok != tc.ok {
			t.Fatalf("local place (%d,%d) ok=%v want %v", tc.core, tc.width, ok, tc.ok)
		}
		if ok && pl.Leader != tc.wantLeader {
			t.Fatalf("local place (%d,%d) leader=%d want %d", tc.core, tc.width, pl.Leader, tc.wantLeader)
		}
	}
}

func TestPlaceIDRoundTrip(t *testing.T) {
	p := HaswellNode(0)
	for id, pl := range p.Places() {
		if got := p.PlaceID(pl); got != id {
			t.Fatalf("PlaceID(%v) = %d, want %d", pl, got, id)
		}
		if !p.Valid(pl) {
			t.Fatalf("place %v reported invalid", pl)
		}
	}
	if p.PlaceID(Place{Leader: 1, Width: 2}) != -1 {
		t.Fatal("misaligned place reported valid")
	}
	if p.PlaceID(Place{Leader: 999, Width: 1}) != -1 {
		t.Fatal("out-of-range place reported valid")
	}
}

func TestCoresOfAndClusterOf(t *testing.T) {
	p := TX2()
	for ci := 0; ci < p.NumClusters(); ci++ {
		for _, core := range p.CoresOf(ci) {
			if p.ClusterOf(core) != ci {
				t.Fatalf("core %d reported in cluster %d, want %d", core, p.ClusterOf(core), ci)
			}
		}
	}
}

// Property: every local place of a core contains the core and is aligned to
// its width.
func TestPlaceForProperty(t *testing.T) {
	p := Haswell16()
	check := func(coreRaw, widthRaw uint8) bool {
		core := int(coreRaw) % p.NumCores()
		widths := p.Cluster(p.ClusterOf(core)).Widths
		width := widths[int(widthRaw)%len(widths)]
		pl, ok := localPlace(p, core, width)
		if !ok {
			return false
		}
		if !p.Valid(pl) {
			return false
		}
		if core < pl.Leader || core >= pl.Leader+pl.Width {
			return false
		}
		base := p.Cluster(p.ClusterOf(core)).FirstCore
		return (pl.Leader-base)%pl.Width == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetric(t *testing.T) {
	p := Symmetric(8)
	if p.NumCores() != 8 || p.NumClusters() != 1 {
		t.Fatalf("Symmetric(8): %d cores, %d clusters", p.NumCores(), p.NumClusters())
	}
	if w := maxWidth(p); w != 8 {
		t.Fatalf("Symmetric(8) max width %d", w)
	}
}

func TestPlaceString(t *testing.T) {
	if s := (Place{Leader: 2, Width: 4}).String(); s != "(C2,4)" {
		t.Fatalf("Place.String() = %q", s)
	}
}
