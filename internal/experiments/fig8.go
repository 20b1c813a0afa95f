package experiments

import (
	"fmt"
	"io"

	"dynasym/internal/core"
	"dynasym/internal/scenario"
	"dynasym/internal/workloads"
)

// Fig8Result holds throughput per (tile, alpha).
type Fig8Result struct {
	Tiles  []int
	Alphas []float64
	// Tput[i][j] is throughput for Tiles[i] at Alphas[j].
	Tput [][]float64
}

// fig8 runs the sensitivity analysis (Figure 8): MatMul DAG throughput under
// DAM-C as a function of the PTT update weight (new-sample weight alpha =
// 1/5 … 5/5) and the tile size (32, 64, 80, 96), under the same core-0
// co-runner as Figure 4. Short tasks (tile 32) are sensitive to measurement
// outliers, so aggressive weights mis-steer the scheduler; larger tiles are
// insensitive — that is the paper's justification for the 1:4 weighted
// update. It is one scenario whose points are the full tile × alpha cross
// product.
func fig8(scale Scale, seed uint64) *Fig8Result {
	res := &Fig8Result{
		Tiles:  []int{32, 64, 80, 96},
		Alphas: []float64{1.0 / 5, 2.0 / 5, 3.0 / 5, 4.0 / 5, 1.0},
	}
	label := func(tile int, alpha float64) string { return fmt.Sprintf("t%d/w%g", tile, alpha) }
	var points []scenario.Point
	for _, tile := range res.Tiles {
		for _, alpha := range res.Alphas {
			points = append(points, scenario.Point{Label: label(tile, alpha), Tile: tile, Alpha: alpha})
		}
	}
	policy := core.DAMC()
	sres := scenario.MustRun(scenario.Spec{
		Name:     "fig8",
		Platform: scenario.PlatformSpec{Preset: "tx2"},
		Workload: scenario.WorkloadSpec{Kind: scenario.Synthetic, Synthetic: workloads.SyntheticConfig{
			Kernel: workloads.MatMul,
			Tasks:  scale.tasks(32000, 600),
			// Parallelism 2 keeps the run spine-bound, where critical-task
			// placement flips caused by noisy measurements actually cost
			// throughput (the paper's tile-32 sensitivity).
			Parallelism: 2,
		}},
		Disturb:  []scenario.Disturbance{{Kind: scenario.CoRunCPU, Cores: []int{0}, Share: coRunShare}},
		Policies: []core.Policy{policy},
		Points:   points,
		Seed:     seed,
	})
	for _, tile := range res.Tiles {
		row := make([]float64, len(res.Alphas))
		for j, alpha := range res.Alphas {
			row[j] = sres.Cell(policy.Name(), label(tile, alpha)).Run().Throughput
		}
		res.Tput = append(res.Tput, row)
	}
	return res
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
