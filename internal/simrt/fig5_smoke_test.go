package simrt_test

import (
	"fmt"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/interfere"
	"dynasym/internal/machine"
	"dynasym/internal/simrt"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

func TestSmokeFig5(t *testing.T) {
	for _, pol := range core.All() {
		topo := topology.TX2()
		model := machine.New(topo)
		interfere.CoRunCPU(model, []int{0}, 0.5)
		g := workloads.BuildSynthetic(workloads.SyntheticConfig{
			Kernel: workloads.MatMul, Tile: 64, Tasks: 3200, Parallelism: 2,
		})
		rt, _ := simrt.New(simrt.Config{Topo: topo, Model: model, Policy: pol, Seed: 1})
		coll, err := rt.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("%-7s:", pol.Name())
		for i, ps := range coll.PlaceHistogram() {
			if i > 5 {
				break
			}
			fmt.Printf(" %s=%.1f%%", ps.Place, ps.Frac*100)
		}
		fmt.Println()
	}
}
