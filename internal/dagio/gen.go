package dagio

// Deterministic parametric generators for the classic task graphs the
// scheduling literature evaluates on. Every generator emits a GraphSpec
// — the same intermediate form the importers produce — so generated and
// imported graphs share validation, canonical encoding and the Build
// path into the runtime.
//
// Determinism contract: a GenConfig fully determines the emitted graph,
// bit for bit. The only randomness (random-layered structure and work
// jitter) comes from the config's own Seed through xrand, never from
// global state.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dynasym/internal/xrand"
)

// Generator models, in the order Models() reports them.
const (
	// ModelCholesky is the tiled right-looking Cholesky factorization:
	// POTRF/TRSM/SYRK/GEMM tasks over a Tiles×Tiles lower-triangular
	// tile grid, dependencies derived from block data flow.
	ModelCholesky = "cholesky"
	// ModelForkJoin is a chain of Layers fork-join segments: a light
	// fork task fans out to Width workers whose join releases the next
	// segment.
	ModelForkJoin = "fork-join"
	// ModelLU is the tiled LU factorization without pivoting:
	// GETRF/TRSM-row/TRSM-col/GEMM tasks over a Tiles×Tiles grid.
	ModelLU = "lu"
	// ModelRandomLayered is a seeded random layered DAG: Layers ×
	// Width nodes, each wired to 1..Degree predecessors in the
	// previous layer, with ±50% work jitter.
	ModelRandomLayered = "random-layered"
)

// Models lists the generator models in sorted order.
func Models() []string {
	return []string{ModelCholesky, ModelForkJoin, ModelLU, ModelRandomLayered}
}

// GenConfig parameterizes one generated graph.
type GenConfig struct {
	// Model selects the generator (see Models).
	Model string
	// Tiles is the tile-grid edge of the factorization models
	// (default 8: 120 Cholesky tasks, 204 LU tasks).
	Tiles int
	// Tile is the simulated tile edge in elements; it scales every
	// task's compute and traffic like the synthetic kernels' Tile
	// (default 64).
	Tile int
	// Layers is the number of fork-join segments or random layers
	// (default 12).
	Layers int
	// Width is the fork width / tasks per random layer (default 8).
	Width int
	// Degree caps a random-layered node's predecessors (default 3).
	Degree int
	// Seed drives the random-layered structure and work jitter.
	Seed uint64
}

// Defaults fills unset fields.
func (c GenConfig) Defaults() GenConfig {
	if c.Tiles == 0 {
		c.Tiles = 8
	}
	if c.Tile == 0 {
		c.Tile = 64
	}
	if c.Layers == 0 {
		c.Layers = 12
	}
	if c.Width == 0 {
		c.Width = 8
	}
	if c.Degree == 0 {
		c.Degree = 3
	}
	return c
}

// Validate checks the filled config.
func (c GenConfig) Validate() error {
	known := false
	for _, m := range Models() {
		if c.Model == m {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("dagio: unknown generator model %q (known models: %s)", c.Model, modelList())
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"tiles", c.Tiles}, {"tile", c.Tile}, {"layers", c.Layers},
		{"width", c.Width}, {"degree", c.Degree},
	} {
		if f.v < 0 {
			return fmt.Errorf("dagio: generator %s: negative %s %d", c.Model, f.name, f.v)
		}
	}
	return nil
}

// Tasks returns how many tasks the filled config's graph has, as a float64
// so that no config overflows it: callers bound the count before Graph
// allocates anything.
func (c GenConfig) Tasks() float64 {
	t, l, w := float64(c.Tiles), float64(c.Layers), float64(c.Width)
	switch c.Model {
	case ModelCholesky:
		return t * (t + 1) * (t + 2) / 6
	case ModelLU:
		return t * (t + 1) * (2*t + 1) / 6
	case ModelForkJoin:
		return l * (w + 2)
	default: // ModelRandomLayered
		return l * w
	}
}

func modelList() string {
	return strings.Join(Models(), ", ")
}

// Graph expands the config into its task graph. The result is already
// normalized and validated.
func (c GenConfig) Graph() (*GraphSpec, error) {
	c = c.Defaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var g *GraphSpec
	switch c.Model {
	case ModelCholesky:
		g = genCholesky(c)
	case ModelLU:
		g = genLU(c)
	case ModelForkJoin:
		g = genForkJoin(c)
	case ModelRandomLayered:
		g = genRandomLayered(c)
	}
	ng := g.Normalized()
	if err := ng.Validate(); err != nil {
		return nil, fmt.Errorf("dagio: generator %s emitted an invalid graph: %w", c.Model, err)
	}
	return ng, nil
}

// flopsPerCycle converts tile-kernel flops into machine-model ops,
// matching the calibration of the built-in synthetic kernels (scalar
// gcc code on in-order-ish mobile cores).
const flopsPerCycle = 0.086

// Tile-kernel costs in flops for tile edge t: GEMM does 2t³, TRSM and
// SYRK t³, POTRF t³/3. Traffic is 8-byte elements per tile touched.
func tileCosts(tile int) (gemmW, trsmW, syrkW, potrfW, tileBytes float64) {
	t := float64(tile)
	gemmW = 2 * t * t * t / flopsPerCycle
	trsmW = t * t * t / flopsPerCycle
	syrkW = t * t * t / flopsPerCycle
	potrfW = t * t * t / 3 / flopsPerCycle
	tileBytes = 8 * t * t
	return
}

// blockTracker derives dependencies from block data flow: each task
// declares the tile-grid blocks it touches, and depends on the previous
// writer of every one of them.
type blockTracker struct {
	g      *GraphSpec
	writer map[[2]int]string // block → id of its last writer
}

// task appends a node that reads `reads` and (over)writes `writes`.
func (b *blockTracker) task(id string, work, bytes float64, typ string, high bool, writes [2]int, reads ...[2]int) {
	b.g.Nodes = append(b.g.Nodes, Node{ID: id, Work: work, Bytes: bytes, Type: typ, High: high})
	seen := map[string]bool{}
	for _, blk := range append(reads, writes) {
		if w, ok := b.writer[blk]; ok && w != id && !seen[w] {
			seen[w] = true
			b.g.Edges = append(b.g.Edges, Edge{From: w, To: id})
		}
	}
	b.writer[writes] = id
}

// genCholesky emits the tiled right-looking Cholesky DAG. For T tiles:
// T POTRF + T(T-1)/2 TRSM + T(T-1)/2 SYRK + T(T-1)(T-2)/6 GEMM tasks.
// POTRF tasks (the sequential spine) are marked high priority.
func genCholesky(c GenConfig) *GraphSpec {
	gemmW, trsmW, syrkW, potrfW, tb := tileCosts(c.Tile)
	T := c.Tiles
	b := &blockTracker{
		g:      &GraphSpec{Name: "cholesky-" + strconv.Itoa(T)},
		writer: map[[2]int]string{},
	}
	for k := 0; k < T; k++ {
		b.task(genLabel("potrf", k, -1, -1), potrfW, tb, "potrf", true, [2]int{k, k})
		for i := k + 1; i < T; i++ {
			b.task(genLabel("trsm", i, k, -1), trsmW, 2*tb, "trsm", false,
				[2]int{i, k}, [2]int{k, k})
		}
		for i := k + 1; i < T; i++ {
			b.task(genLabel("syrk", i, k, -1), syrkW, 2*tb, "syrk", false,
				[2]int{i, i}, [2]int{i, k})
			for j := k + 1; j < i; j++ {
				b.task(genLabel("gemm", i, j, k), gemmW, 3*tb, "gemm", false,
					[2]int{i, j}, [2]int{i, k}, [2]int{j, k})
			}
		}
	}
	return b.g
}

// genLU emits the tiled LU factorization (no pivoting). For T tiles:
// T GETRF + T(T-1) TRSM + T(T-1)(2T-1)/6 - ... GEMM update tasks; the
// GETRF spine is marked high priority.
func genLU(c GenConfig) *GraphSpec {
	gemmW, trsmW, _, potrfW, tb := tileCosts(c.Tile)
	// GETRF on one tile costs ~2t³/3 flops — twice the POTRF third.
	getrfW := 2 * potrfW
	T := c.Tiles
	b := &blockTracker{
		g:      &GraphSpec{Name: "lu-" + strconv.Itoa(T)},
		writer: map[[2]int]string{},
	}
	for k := 0; k < T; k++ {
		b.task(genLabel("getrf", k, -1, -1), getrfW, tb, "getrf", true, [2]int{k, k})
		for j := k + 1; j < T; j++ {
			b.task(genLabel("trsmu", k, j, -1), trsmW, 2*tb, "trsm", false,
				[2]int{k, j}, [2]int{k, k})
		}
		for i := k + 1; i < T; i++ {
			b.task(genLabel("trsml", i, k, -1), trsmW, 2*tb, "trsm", false,
				[2]int{i, k}, [2]int{k, k})
		}
		for i := k + 1; i < T; i++ {
			for j := k + 1; j < T; j++ {
				b.task(genLabel("gemm", i, j, k), gemmW, 3*tb, "gemm", false,
					[2]int{i, j}, [2]int{i, k}, [2]int{k, j})
			}
		}
	}
	return b.g
}

// genForkJoin emits Layers fork-join segments of Width workers. Fork
// and join tasks are light coordination work on the critical chain and
// are marked high priority.
func genForkJoin(c GenConfig) *GraphSpec {
	gemmW, _, _, _, tb := tileCosts(c.Tile)
	coordW := gemmW / 64
	if coordW < 1 {
		coordW = 1
	}
	g := &GraphSpec{Name: "fork-join-" + strconv.Itoa(c.Layers) + "x" + strconv.Itoa(c.Width)}
	var prevJoin string
	for l := 0; l < c.Layers; l++ {
		fork := genLabel("fork", l, -1, -1)
		join := genLabel("join", l, -1, -1)
		g.Nodes = append(g.Nodes, Node{ID: fork, Work: coordW, Type: "fork", High: true})
		if prevJoin != "" {
			g.Edges = append(g.Edges, Edge{From: prevJoin, To: fork})
		}
		for i := 0; i < c.Width; i++ {
			w := genLabel("work", l, i, -1)
			g.Nodes = append(g.Nodes, Node{ID: w, Work: gemmW, Bytes: 2 * tb, Type: "work"})
			g.Edges = append(g.Edges, Edge{From: fork, To: w}, Edge{From: w, To: join})
		}
		g.Nodes = append(g.Nodes, Node{ID: join, Work: coordW, Type: "join", High: true})
		prevJoin = join
	}
	return g
}

// genRandomLayered emits a seeded random layered DAG. Node (l, i)
// depends on 1..Degree uniformly chosen nodes of layer l-1 (always at
// least one, so no floating islands), its work jitters ±50% around the
// tile cost, and its type cycles through three byte-intensity classes.
// The first node of each layer is marked high priority.
func genRandomLayered(c GenConfig) *GraphSpec {
	baseW, _, _, _, tb := tileCosts(c.Tile)
	rng := xrand.New(c.Seed)
	g := &GraphSpec{Name: "random-layered-" + strconv.Itoa(c.Layers) + "x" + strconv.Itoa(c.Width)}
	classes := []struct {
		typ   string
		bytes float64
	}{
		{"cpu", 0},
		{"mix", tb},
		{"mem", 4 * tb},
	}
	for l := 0; l < c.Layers; l++ {
		for i := 0; i < c.Width; i++ {
			id := genLabel("rnd", l, i, -1)
			cls := classes[(l*c.Width+i)%len(classes)]
			work := baseW * (0.5 + rng.Float64())
			g.Nodes = append(g.Nodes, Node{ID: id, Work: work, Bytes: cls.bytes, Type: cls.typ, High: i == 0})
			if l == 0 {
				continue
			}
			deg := 1 + rng.Intn(c.Degree)
			if deg > c.Width {
				deg = c.Width
			}
			preds := map[int]bool{}
			for len(preds) < deg {
				preds[rng.Intn(c.Width)] = true
			}
			// Map iteration order is random; materialize edges in
			// sorted order so the emitted spec (pre-normalization) is
			// already deterministic.
			ps := make([]int, 0, len(preds))
			for p := range preds {
				ps = append(ps, p)
			}
			sort.Ints(ps)
			for _, p := range ps {
				g.Edges = append(g.Edges, Edge{From: genLabel("rnd", l-1, p, -1), To: id})
			}
		}
	}
	return g
}

// genLabel renders "kind_a", "kind_a_b" or "kind_a_b_c" without fmt.
func genLabel(kind string, a, b, c int) string {
	var scratch [40]byte
	out := scratch[:0]
	out = append(out, kind...)
	out = append(out, '_')
	out = strconv.AppendInt(out, int64(a), 10)
	if b >= 0 {
		out = append(out, '_')
		out = strconv.AppendInt(out, int64(b), 10)
	}
	if c >= 0 {
		out = append(out, '_')
		out = strconv.AppendInt(out, int64(c), 10)
	}
	return string(out)
}
