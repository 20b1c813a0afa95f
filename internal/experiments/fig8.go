package experiments

import (
	"fmt"
	"io"
	"slices"

	"dynasym/internal/scenario"
)

// Fig8Result holds throughput per (tile, alpha).
type Fig8Result struct {
	Tiles  []int
	Alphas []float64
	// Tput[i][j] is throughput for Tiles[i] at Alphas[j].
	Tput [][]float64
}

// fig8 is Figure 8's view of the fig8 family, whose points are the tile ×
// alpha cross product, tile-major: DAM-C's throughput with one row per
// tile size and one column per PTT update weight.
func fig8(res *scenario.Result) Renderer {
	r := &Fig8Result{}
	for _, pt := range res.Points {
		i := slices.Index(r.Tiles, pt.Tile)
		if i < 0 {
			i = len(r.Tiles)
			r.Tiles = append(r.Tiles, pt.Tile)
			r.Tput = append(r.Tput, nil)
		}
		if !slices.Contains(r.Alphas, pt.Alpha) {
			r.Alphas = append(r.Alphas, pt.Alpha)
		}
		r.Tput[i] = append(r.Tput[i], res.Cell(res.Policies[0], pt.Label).Run().Throughput)
	}
	return r
}

// Render prints tiles × alphas.
func (r *Fig8Result) Render(w io.Writer) {
	fmt.Fprintln(w, "# Figure 8: PTT weight-ratio and tile-size sensitivity (MatMul, co-run on core 0)")
	fmt.Fprintf(w, "%-6s", "tile")
	for _, a := range r.Alphas {
		fmt.Fprintf(w, "  w=%.1f   ", a)
	}
	fmt.Fprintln(w)
	for i, tile := range r.Tiles {
		fmt.Fprintf(w, "%-6d", tile)
		for j := range r.Alphas {
			fmt.Fprintf(w, "%9.0f", r.Tput[i][j])
		}
		fmt.Fprintln(w)
	}
}

// Spread returns (max-min)/max throughput across alphas for a tile index —
// the paper reports ~36% for tile 32 and near-flat for larger tiles.
func (r *Fig8Result) Spread(i int) float64 {
	min, max := r.Tput[i][0], r.Tput[i][0]
	for _, v := range r.Tput[i] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return 0
	}
	return (max - min) / max
}
