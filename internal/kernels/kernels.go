// Package kernels describes the three task kernels the paper's synthetic
// DAGs are built from — MatMul (compute-intensive), Copy (memory-intensive)
// and Stencil (cache-intensive) — to the simulator: stable task-type ids and
// calibrated analytic cost descriptors (machine.Cost) consumed by the
// machine model's roofline. There is no executable form: the scheduler
// learns from observed durations, and those come from the model.
//
// Task types are stable across the repository so Performance Trace Tables
// can be shared between runs.
package kernels

import (
	"dynasym/internal/machine"
	"dynasym/internal/ptt"
)

// Stable task type ids for the built-in kernels. Applications define their
// own ids starting from TypeUser.
const (
	TypeMatMul ptt.TypeID = iota
	TypeCopy
	TypeStencil
	TypeComm // distributed boundary-exchange tasks
	TypeUser // first id available to applications
)

// Calibration constants converting kernel arithmetic into the machine
// model's abstract ops (cycles on a speed-1.0 core). They encode sustained
// operations-per-cycle for scalar, gcc-compiled code on in-order-ish mobile
// cores, calibrated so simulated per-task times land in the millisecond
// range the paper's TX2 throughputs imply (e.g. ~3300 MatMul-64 tasks/s on
// six cores).
// The matmul rate is back-solved from the paper's TX2 numbers (an A57 takes
// ~3 ms per 64×64×64 tile, i.e. ~0.086 sustained flops/cycle for unblocked
// scalar gcc 5.4 code with cold tiles).
const (
	matmulFlopsPerCycle  = 0.086 // scalar triple loop, cold tiles
	copyCyclesPerElement = 0.25  // pure streaming, cheap address math
	stencilFlopsPerCycle = 0.5   // add-heavy with reuse stalls
)

// MatMulCost returns the cost descriptor for one n×n×n tile multiplication
// (C += A×B on float64 tiles). Row partitioning replicates the B tile
// stream across members (SharedBytes) and parallelizes poorly at small
// tiles, hence the large width penalty.
func MatMulCost(n int) machine.Cost {
	nn := float64(n)
	return machine.Cost{
		Ops:          2 * nn * nn * nn / matmulFlopsPerCycle,
		Bytes:        2 * 8 * nn * nn, // A rows in, C rows out
		SharedBytes:  8 * nn * nn,     // every member streams all of B
		WorkingSet:   2 * 8 * nn * nn,
		SyncSeconds:  3e-6,
		WidthPenalty: 0.15,
	}
}

// CopyCost returns the cost descriptor for copying an n×n float64 matrix.
// Streaming: the working set is declared zero so caches cannot help, and
// row partitions split perfectly.
func CopyCost(n int) machine.Cost {
	nn := float64(n)
	return machine.Cost{
		Ops:          copyCyclesPerElement * nn * nn,
		Bytes:        2 * 8 * nn * nn,
		WorkingSet:   0,
		SyncSeconds:  2e-6,
		WidthPenalty: 0.05,
	}
}

// StencilCost returns the cost descriptor for `sweeps` 5-point Jacobi
// sweeps over an n×n float64 grid. Repeated sweeps make it cache-sensitive:
// if the two grids fit in cache, only the first sweep streams from DRAM.
// The per-sweep member barrier shows up as a width penalty between Copy's
// and MatMul's.
func StencilCost(n, sweeps int) machine.Cost {
	nn := float64(n)
	s := float64(sweeps)
	return machine.Cost{
		Ops:          float64(6*nn*nn*s) / stencilFlopsPerCycle,
		Bytes:        2 * 8 * nn * nn * s,
		WorkingSet:   2 * 8 * nn * nn,
		SyncSeconds:  3e-6,
		WidthPenalty: 0.15,
	}
}
