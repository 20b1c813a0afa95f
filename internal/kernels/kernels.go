// Package kernels provides the three task kernels the paper's synthetic
// DAGs are built from — MatMul (compute-intensive), Copy (memory-intensive)
// and Stencil (cache-intensive) — in two forms that must stay consistent:
//
//  1. Real, partitionable Go implementations, executed when the simulator
//     runs task bodies (simrt.Config.RunBodies): every member of a moldable
//     place calls Body with its partition index.
//  2. Analytic cost descriptors (machine.Cost) consumed by the simulator's
//     roofline model.
//
// Task types are stable across the repository so Performance Trace Tables
// can be shared between runs.
package kernels

import (
	"dynasym/internal/dag"
	"dynasym/internal/machine"
	"dynasym/internal/ptt"
	"dynasym/internal/xrand"
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
		Ops:          6 * nn * nn * s / stencilFlopsPerCycle,
		Bytes:        2 * 8 * nn * nn * s,
		WorkingSet:   2 * 8 * nn * nn,
		SyncSeconds:  3e-6,
		WidthPenalty: 0.15,
	}
}

// rowRange splits n rows among width members and returns member part's
// half-open row interval. The first rows%width members take one extra row.
func rowRange(n, part, width int) (lo, hi int) {
	base := n / width
	extra := n % width
	lo = part*base + min(part, extra)
	hi = lo + base
	if part < extra {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// MatMul holds the operand tiles for one matrix-multiplication task.
type MatMul struct {
	N       int
	A, B, C []float64
}

// NewMatMul allocates an n×n multiplication with pseudo-random operands.
func NewMatMul(n int, r *xrand.RNG) *MatMul {
	m := &MatMul{N: n, A: make([]float64, n*n), B: make([]float64, n*n), C: make([]float64, n*n)}
	for i := range m.A {
		m.A[i] = r.Float64() - 0.5
		m.B[i] = r.Float64() - 0.5
	}
	return m
}

// Body computes this member's rows of C += A×B using an ikj loop order that
// streams B rows through cache. Partitioning is by rows of C, so members
// never write the same elements.
func (m *MatMul) Body(e dag.Exec) {
	lo, hi := rowRange(m.N, e.Part, e.Width)
	n := m.N
	for i := lo; i < hi; i++ {
		ci := m.C[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			a := m.A[i*n+k]
			bk := m.B[k*n : (k+1)*n]
			for j, b := range bk {
				ci[j] += a * b
			}
		}
	}
}

// Reference computes the full product serially into a fresh slice, for
// correctness tests.
func (m *MatMul) Reference() []float64 {
	n := m.N
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			a := m.A[i*n+k]
			for j := 0; j < n; j++ {
				out[i*n+j] += a * m.B[k*n+j]
			}
		}
	}
	return out
}

// Copy holds the buffers for one matrix-copy task.
type Copy struct {
	N        int
	Src, Dst []float64
}

// NewCopy allocates an n×n copy task with pseudo-random source data.
func NewCopy(n int, r *xrand.RNG) *Copy {
	c := &Copy{N: n, Src: make([]float64, n*n), Dst: make([]float64, n*n)}
	for i := range c.Src {
		c.Src[i] = r.Float64()
	}
	return c
}

// Body copies this member's rows from Src to Dst.
func (c *Copy) Body(e dag.Exec) {
	lo, hi := rowRange(c.N, e.Part, e.Width)
	copy(c.Dst[lo*c.N:hi*c.N], c.Src[lo*c.N:hi*c.N])
}

// Stencil holds the grids for one multi-sweep 5-point Jacobi task. Sweeps
// alternate between the two grids; members synchronize between sweeps on an
// internal barrier because row partitions read their neighbours' boundary
// rows.
type Stencil struct {
	N      int
	Sweeps int
	a, b   []float64
	bar    *SpinBarrier
}

// NewStencil allocates an n×n stencil task performing the given number of
// sweeps, with pseudo-random initial state.
func NewStencil(n, sweeps int, r *xrand.RNG) *Stencil {
	s := &Stencil{N: n, Sweeps: sweeps, a: make([]float64, n*n), b: make([]float64, n*n), bar: NewSpinBarrier()}
	for i := range s.a {
		s.a[i] = r.Float64()
	}
	copy(s.b, s.a)
	return s
}

// Body performs this member's rows of each sweep, with a barrier between
// sweeps. Boundary rows (0 and N-1) are held fixed.
func (s *Stencil) Body(e dag.Exec) {
	n := s.N
	lo, hi := rowRange(n-2, e.Part, e.Width)
	lo, hi = lo+1, hi+1 // interior rows only
	src, dst := s.a, s.b
	for sweep := 0; sweep < s.Sweeps; sweep++ {
		for i := lo; i < hi; i++ {
			row := i * n
			up := row - n
			down := row + n
			for j := 1; j < n-1; j++ {
				dst[row+j] = 0.2 * (src[row+j] + src[row+j-1] + src[row+j+1] + src[up+j] + src[down+j])
			}
		}
		if e.Width > 1 {
			s.bar.Wait(e.Width)
		}
		src, dst = dst, src
	}
}

// Result returns the grid holding the final sweep's output.
func (s *Stencil) Result() []float64 {
	if s.Sweeps%2 == 1 {
		return s.b
	}
	return s.a
}

// Checksum returns a deterministic digest of a float64 slice for
// correctness tests (order-sensitive fold of the bit patterns).
func Checksum(xs []float64) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	for _, x := range xs {
		bits := uint64(int64(x * 1e6)) // quantize to absorb fp reassociation
		h ^= bits
		h *= 1099511628211
	}
	return h
}
