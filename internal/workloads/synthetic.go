// Package workloads builds the paper's benchmark applications as task
// graphs: the synthetic layered DAGs (Section 4.2.2), K-means clustering
// unrolled over its iterations, and the distributed 2D Heat stencil.
package workloads

import (
	"fmt"
	"strconv"

	"dynasym/internal/dag"
	"dynasym/internal/kernels"
	"dynasym/internal/machine"
	"dynasym/internal/ptt"
)

// KernelKind selects the node type of a synthetic DAG.
type KernelKind int

// The three kernel classes of the paper's synthetic DAGs.
const (
	MatMul  KernelKind = iota // compute-intensive
	Copy                      // memory-intensive
	Stencil                   // cache-intensive
)

// String returns the paper's kernel name.
func (k KernelKind) String() string {
	switch k {
	case MatMul:
		return "MatMul"
	case Copy:
		return "Copy"
	case Stencil:
		return "Stencil"
	default:
		return fmt.Sprintf("KernelKind(%d)", int(k))
	}
}

// MarshalText encodes the kernel as its String name.
func (k KernelKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a kernel's String name. A spec document spells it as
// workload.synthetic.kernel, which an unknown name's NameError names.
func (k *KernelKind) UnmarshalText(b []byte) error {
	for c := MatMul; c <= Stencil; c++ {
		if c.String() == string(b) {
			*k = c
			return nil
		}
	}
	return UnknownName("scenario: unknown workload.synthetic.kernel %q (known kernels: MatMul, Copy, Stencil)", b)
}

// NameError is a name in a spec document that no value of its kind has. Its
// text names the field and the known names, so a spec parser returns it as
// it is, where it wraps encoding/json's own errors.
type NameError struct{ error }

// UnknownName returns a NameError with the formatted text.
func UnknownName(format string, args ...any) error {
	return NameError{fmt.Errorf(format, args...)}
}

// typeID returns the PTT task type for the kernel.
func (k KernelKind) typeID() ptt.TypeID {
	switch k {
	case MatMul:
		return kernels.TypeMatMul
	case Copy:
		return kernels.TypeCopy
	case Stencil:
		return kernels.TypeStencil
	default:
		return kernels.TypeUser
	}
}

// SyntheticConfig describes one synthetic layered DAG, following the paper:
// every layer holds Parallelism tasks of the same type; one task per layer
// is critical and releases the next layer when it completes.
type SyntheticConfig struct {
	// Kernel selects the node type.
	Kernel KernelKind `json:"kernel"`
	// Tile is the square tile edge per task (paper defaults: 64 for
	// MatMul, 1024 for Copy and Stencil).
	Tile int `json:"tile"`
	// Sweeps is the number of stencil sweeps per task (ignored
	// otherwise). Defaults to 1, matching the per-task times the paper's
	// stencil throughputs imply.
	Sweeps int `json:"sweeps"`
	// Tasks is the total number of tasks (paper defaults: 32000 MatMul,
	// 10000 Copy, 20000 Stencil). Rounded down to a whole number of
	// layers.
	Tasks int `json:"tasks"`
	// Parallelism is the DAG parallelism P (tasks per layer).
	Parallelism int `json:"parallelism"`
}

// Defaults fills unset fields with the paper's values for the kernel.
func (c SyntheticConfig) Defaults() SyntheticConfig {
	if c.Tile == 0 {
		if c.Kernel == MatMul {
			c.Tile = 64
		} else {
			c.Tile = 1024
		}
	}
	if c.Sweeps == 0 {
		c.Sweeps = 1
	}
	if c.Tasks == 0 {
		switch c.Kernel {
		case MatMul:
			c.Tasks = 32000
		case Copy:
			c.Tasks = 10000
		default:
			c.Tasks = 20000
		}
	}
	if c.Parallelism == 0 {
		c.Parallelism = 4
	}
	return c
}

// cost returns the machine-model cost of one task of this configuration.
func (c SyntheticConfig) cost() machine.Cost {
	switch c.Kernel {
	case MatMul:
		return kernels.MatMulCost(c.Tile)
	case Copy:
		return kernels.CopyCost(c.Tile)
	default:
		return kernels.StencilCost(c.Tile, c.Sweeps)
	}
}

// Layers is the number of whole layers BuildSynthetic builds of a
// defaults-filled config: Tasks rounded down to a multiple of Parallelism,
// at least one layer.
func (c SyntheticConfig) Layers() int { return max(c.Tasks/c.Parallelism, 1) }

// BuildSynthetic constructs the layered synthetic DAG. Layer i's critical
// task releases all of layer i+1, so DAG parallelism (total tasks / longest
// path) equals cfg.Parallelism exactly.
func BuildSynthetic(cfg SyntheticConfig) *dag.Graph {
	cfg = cfg.Defaults()
	g := dag.New()
	layers := cfg.Layers()
	g.Grow(layers*cfg.Parallelism, (layers-1)*cfg.Parallelism)
	cost := cfg.cost()
	typeID := cfg.Kernel.typeID()
	kernelName := cfg.Kernel.String()
	crit := []int32{0} // the previous layer's critical task: its first
	for layer := 0; layer < layers; layer++ {
		for i := 0; i < cfg.Parallelism; i++ {
			g.Add(dag.Task{
				Label: layerLabel(kernelName, layer, i),
				Type:  typeID,
				High:  i == 0,
				Cost:  cost,
				Iter:  layer,
			}, crit[:min(layer, 1)]...)
		}
		crit[0] = int32(layer * cfg.Parallelism)
	}
	return g
}

// layerLabel renders "kernel[Llayer.i]" without fmt: label construction is
// a measurable slice of large-graph build time in scenario sweeps, and one
// stack-scratch strconv append per label beats Sprintf by an order of
// magnitude in both time and allocations.
func layerLabel(kernel string, layer, i int) string {
	var scratch [40]byte
	b := scratch[:0]
	b = append(b, kernel...)
	b = append(b, '[', 'L')
	b = strconv.AppendInt(b, int64(layer), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, ']')
	return string(b)
}
