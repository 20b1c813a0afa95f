// Package topology describes the execution platform: cores grouped into
// clusters (resource partitions) that share a cache level and a memory
// channel, and the set of valid execution places on them.
//
// The model follows the paper's platform section: cores share an ISA but not
// necessarily performance; meaningful resource partitions are sets of cores
// sharing caches or memory channels (what hwloc would report). An execution
// place is a tuple (leader core, resource width): `width` consecutive cores
// of one cluster, aligned to the width, that cooperate on one moldable task.
package topology

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Cluster is one resource partition: a set of contiguous cores sharing a
// last-level cache and a memory channel. Widths lists the resource widths
// supported for tasks on this cluster (e.g. 1,2,4 on a quad-core cluster).
type Cluster struct {
	// Name identifies the cluster in reports ("denver", "a57", "socket0").
	Name string
	// FirstCore is the global id of the cluster's first core.
	FirstCore int
	// NumCores is the number of cores in the cluster.
	NumCores int
	// Widths are the valid resource widths, sorted ascending. Each width
	// must divide evenly into aligned sub-partitions (powers of two on the
	// platforms modeled here, but any divisor chain works).
	Widths []int
	// Speed is the static relative performance of one core of this cluster
	// (instructions per cycle × relative issue capability). A Denver core
	// at 2.0 does twice the work per cycle of an A57 core at 1.0.
	Speed float64
	// BaseHz is the nominal clock frequency in Hz used when no DVFS
	// profile overrides it.
	BaseHz float64
	// L1Bytes is the per-core L1 data cache capacity.
	L1Bytes int
	// L2Bytes is the cluster's shared L2 (or LLC) capacity.
	L2Bytes int
	// MemBandwidth is the cluster's share of memory bandwidth in bytes/s,
	// shared by all cores of the cluster.
	MemBandwidth float64
	// NodeID identifies the distributed-memory node this cluster belongs
	// to. Single-node platforms use 0 everywhere.
	NodeID int
}

// Place is an execution place: Width cores led by (and including) Leader.
// Valid places are aligned: (Leader - cluster.FirstCore) % Width == 0.
type Place struct {
	Leader int
	Width  int
}

// String renders the place like the paper's figures: "(C2,4)".
func (p Place) String() string { return string(p.AppendTo(nil)) }

// AppendTo appends the String form to b, for renderers that print many
// places (the scenario fingerprint) and must not allocate per place.
func (p Place) AppendTo(b []byte) []byte {
	b = append(b, "(C"...)
	b = strconv.AppendInt(b, int64(p.Leader), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(p.Width), 10)
	return append(b, ')')
}

// Platform is an immutable description of the machine. Build one with New
// and share it freely; all methods are safe for concurrent use.
type Platform struct {
	clusters []Cluster
	nCores   int
	// coreCluster[i] is the index into clusters for core i.
	coreCluster []int
	// places enumerates every valid execution place, ordered by leader
	// core then width. Index with PlaceIndex.
	places []Place
	// placeIndex[leader][width] = position in places, or -1.
	placeIndex [][]int
	// localPlaceIDs[core] lists the dense ids of the aligned places that
	// contain core, one per supported width in ascending width order (so
	// entry 0 is always the width-1 place led by core). Schedulers walk it
	// on every dispatch decision instead of re-deriving PlaceFor per width.
	localPlaceIDs [][]int32
	maxWidth      int
	// desc is the String form, rendered once at construction: every result
	// document and fingerprint prints it.
	desc string
}

// New validates the cluster list and builds a Platform. Clusters must tile
// the core space contiguously starting at core 0, and every width must be
// between 1 and the cluster size and divide the cluster size.
func New(clusters []Cluster) (*Platform, error) {
	if len(clusters) == 0 {
		return nil, fmt.Errorf("topology: no clusters")
	}
	p := &Platform{clusters: append([]Cluster(nil), clusters...)}
	next := 0
	for i := range p.clusters {
		c := &p.clusters[i]
		if c.FirstCore != next {
			return nil, fmt.Errorf("topology: cluster %q starts at core %d, want %d (clusters must tile cores contiguously)", c.Name, c.FirstCore, next)
		}
		if c.NumCores <= 0 {
			return nil, fmt.Errorf("topology: cluster %q has %d cores", c.Name, c.NumCores)
		}
		if c.Speed <= 0 {
			return nil, fmt.Errorf("topology: cluster %q has non-positive speed %v", c.Name, c.Speed)
		}
		if c.BaseHz <= 0 {
			return nil, fmt.Errorf("topology: cluster %q has non-positive base frequency %v", c.Name, c.BaseHz)
		}
		if len(c.Widths) == 0 {
			c.Widths = []int{1}
		}
		sort.Ints(c.Widths)
		seen := map[int]bool{}
		for _, w := range c.Widths {
			if w < 1 || w > c.NumCores {
				return nil, fmt.Errorf("topology: cluster %q width %d out of range 1..%d", c.Name, w, c.NumCores)
			}
			if c.NumCores%w != 0 {
				return nil, fmt.Errorf("topology: cluster %q width %d does not divide cluster size %d", c.Name, w, c.NumCores)
			}
			if seen[w] {
				return nil, fmt.Errorf("topology: cluster %q has duplicate width %d", c.Name, w)
			}
			seen[w] = true
		}
		if !seen[1] {
			return nil, fmt.Errorf("topology: cluster %q must support width 1", c.Name)
		}
		next += c.NumCores
	}
	p.nCores = next
	p.coreCluster = make([]int, p.nCores)
	for ci := range p.clusters {
		c := &p.clusters[ci]
		for i := 0; i < c.NumCores; i++ {
			p.coreCluster[c.FirstCore+i] = ci
		}
	}
	p.placeIndex = make([][]int, p.nCores)
	for core := 0; core < p.nCores; core++ {
		c := &p.clusters[p.coreCluster[core]]
		row := make([]int, c.Widths[len(c.Widths)-1]+1)
		for i := range row {
			row[i] = -1
		}
		for _, w := range c.Widths {
			if (core-c.FirstCore)%w == 0 {
				row[w] = len(p.places)
				p.places = append(p.places, Place{Leader: core, Width: w})
				if w > p.maxWidth {
					p.maxWidth = w
				}
			}
		}
		p.placeIndex[core] = row
	}
	p.localPlaceIDs = make([][]int32, p.nCores)
	for core := 0; core < p.nCores; core++ {
		c := &p.clusters[p.coreCluster[core]]
		ids := make([]int32, len(c.Widths))
		for i, w := range c.Widths {
			leader := c.FirstCore + (core-c.FirstCore)/w*w
			ids[i] = int32(p.placeIndex[leader][w])
		}
		p.localPlaceIDs[core] = ids
	}
	p.desc = p.describe()
	return p, nil
}

// MustNew is New but panics on error; intended for package-level presets and
// tests.
func MustNew(clusters []Cluster) *Platform {
	p, err := New(clusters)
	if err != nil {
		panic(err)
	}
	return p
}

// NumCores returns the total number of cores.
func (p *Platform) NumCores() int { return p.nCores }

// NumClusters returns the number of resource partitions.
func (p *Platform) NumClusters() int { return len(p.clusters) }

// Cluster returns the cluster description with the given index.
func (p *Platform) Cluster(i int) Cluster { return p.clusters[i] }

// ClusterOf returns the index of the cluster containing core.
func (p *Platform) ClusterOf(core int) int { return p.coreCluster[core] }

// MaxWidth returns the largest valid width on any cluster.
func (p *Platform) MaxWidth() int { return p.maxWidth }

// Places returns every valid execution place, ordered by leader core then
// width. The returned slice must not be modified.
func (p *Platform) Places() []Place { return p.places }

// PlaceID returns a dense identifier for a valid place, or -1 if the place
// is not valid on this platform.
func (p *Platform) PlaceID(pl Place) int {
	if pl.Leader < 0 || pl.Leader >= p.nCores {
		return -1
	}
	row := p.placeIndex[pl.Leader]
	if pl.Width < 0 || pl.Width >= len(row) {
		return -1
	}
	return row[pl.Width]
}

// Valid reports whether pl is a valid execution place.
func (p *Platform) Valid(pl Place) bool { return p.PlaceID(pl) >= 0 }

// PlaceFor returns the aligned place of the given width that contains core.
// It returns false if the width is not supported on core's cluster.
func (p *Platform) PlaceFor(core, width int) (Place, bool) {
	c := &p.clusters[p.coreCluster[core]]
	ok := false
	for _, w := range c.Widths {
		if w == width {
			ok = true
			break
		}
	}
	if !ok {
		return Place{}, false
	}
	leader := c.FirstCore + (core-c.FirstCore)/width*width
	return Place{Leader: leader, Width: width}, true
}

// WidthsFor returns the widths supported by core's cluster. The returned
// slice must not be modified.
func (p *Platform) WidthsFor(core int) []int {
	return p.clusters[p.coreCluster[core]].Widths
}

// LocalPlaceIDs returns the dense ids of the aligned places containing
// core, one per supported width in ascending width order; entry 0 is the
// width-1 place (core, 1). The returned slice must not be modified.
func (p *Platform) LocalPlaceIDs(core int) []int32 { return p.localPlaceIDs[core] }

// Members returns the core ids covered by the place.
func (p *Platform) Members(pl Place) []int {
	m := make([]int, pl.Width)
	for i := range m {
		m[i] = pl.Leader + i
	}
	return m
}

// FastestCluster returns the index of the cluster with the highest static
// single-core rate (Speed × BaseHz). This is the "fixed asymmetry" notion
// used by the FA/FAM-C schedulers: on the TX2 it selects the Denver cluster.
func (p *Platform) FastestCluster() int {
	best, bestRate := 0, 0.0
	for i, c := range p.clusters {
		rate := c.Speed * c.BaseHz
		if rate > bestRate {
			best, bestRate = i, rate
		}
	}
	return best
}

// CoresOf returns the core ids belonging to cluster i.
func (p *Platform) CoresOf(i int) []int {
	c := p.clusters[i]
	cores := make([]int, c.NumCores)
	for j := range cores {
		cores[j] = c.FirstCore + j
	}
	return cores
}

// String summarizes the platform for logs and reports.
func (p *Platform) String() string { return p.desc }

// describe renders the String form.
func (p *Platform) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "platform(%d cores", p.nCores)
	for _, c := range p.clusters {
		fmt.Fprintf(&b, "; %s: cores %d-%d speed %.2g @%.3g GHz widths %v",
			c.Name, c.FirstCore, c.FirstCore+c.NumCores-1, c.Speed, c.BaseHz/1e9, c.Widths)
	}
	b.WriteString(")")
	return b.String()
}
