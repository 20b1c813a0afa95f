// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment is a thin spec table over the
// declarative scenario engine (internal/scenario): the driver assembles a
// scenario.Spec literal (platform, disturbances, workload, policy set,
// sweep points), runs it, and reshapes the aggregated metrics into the
// figure's result type. cmd/asymbench exposes the drivers on the command
// line through this package's catalog (Names, Run).
//
// The experiment index lives in EXPERIMENTS.md ("Paper experiments") and
// README.md maps the figures onto specs; expected shapes (who wins, by
// roughly what factor) are asserted by this package's tests and recorded
// against the paper in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"dynasym/internal/scenario"
	"dynasym/internal/workloads"
)

// Scale shrinks an experiment: 1.0 is paper scale, smaller values reduce
// task counts proportionally (minimum sizes keep results meaningful).
// Tests use 0.03–0.5 to stay fast; the CLI defaults to 1.0.
type Scale float64

// tasks scales a task count, keeping at least min.
func (s Scale) tasks(n, min int) int { return scenario.ScaleTasks(n, float64(s), min) }

// catalog is the one ordered list of experiments, in paper order: Names
// and Run both read it, so an id that runs is an id that is listed.
var catalog = []struct {
	id  string
	run func(scale Scale, seed uint64) (Renderer, error)
}{
	{"table1", noErr(func(Scale, uint64) *Table1Result { return Table1() })},
	{"fig4a", sweep(Fig4, workloads.MatMul)},
	{"fig4b", sweep(Fig4, workloads.Copy)},
	{"fig4c", sweep(Fig4, workloads.Stencil)},
	{"fig5", noErr(Fig5)},
	{"fig6", noErr(Fig6)},
	{"fig7a", sweep(Fig7, workloads.MatMul)},
	{"fig7b", sweep(Fig7, workloads.Copy)},
	{"fig7c", sweep(Fig7, workloads.Stencil)},
	{"fig8", noErr(Fig8)},
	{"fig9a", fig9("")},
	{"fig9b", fig9("RWS")},
	{"fig9c", fig9("DAM-P")},
	{"fig10", noErr(Fig10)},
	{"ablation-alpha", noErr(AblationAlpha)},
	{"ablation-steal", ablation("steal")},
	{"ablation-wake", ablation("wake")},
	{"ablation-dheft", ablation("dheft")},
	{"ablation-width", noErr(AblationWidth)},
	{"ablation-sampled", ablation("sampled")},
	{"ablation-infer", noErr(func(s Scale, seed uint64) *ThroughputGrid {
		return AblationInfer(AblationConfig{Scale: s, Seed: seed})
	})},
}

// noErr adapts a driver that cannot fail to the catalog's signature.
func noErr[R Renderer](f func(Scale, uint64) R) func(Scale, uint64) (Renderer, error) {
	return func(s Scale, seed uint64) (Renderer, error) { return f(s, seed), nil }
}

// sweep runs Fig4 or Fig7 on one kernel.
func sweep(fig func(SweepConfig) *ThroughputGrid, k workloads.KernelKind) func(Scale, uint64) (Renderer, error) {
	return noErr(func(s Scale, seed uint64) *ThroughputGrid {
		return fig(SweepConfig{Kernel: k, Scale: s, Seed: seed})
	})
}

// fig9 renders the per-iteration times (Figure 9a) or, given a policy, its
// per-place task counts (Figures 9b and 9c).
func fig9(places string) func(Scale, uint64) (Renderer, error) {
	return func(s Scale, seed uint64) (Renderer, error) {
		res := Fig9(Fig9Config{Scale: s, Seed: seed})
		if places == "" {
			return res, nil
		}
		return placesRenderer{res, places}, nil
	}
}

func ablation(variant string) func(Scale, uint64) (Renderer, error) {
	return func(s Scale, seed uint64) (Renderer, error) {
		return Ablation(AblationConfig{Variant: variant, Scale: s, Seed: seed})
	}
}

// Names lists the built-in experiments, in paper order.
func Names() []string {
	out := make([]string, len(catalog))
	for i, e := range catalog {
		out[i] = e.id
	}
	return out
}

// Run runs the experiment with the given id (one of Names).
func Run(id string, scale Scale, seed uint64) (Renderer, error) {
	for _, e := range catalog {
		if e.id == id {
			return e.run(scale, seed)
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(Names(), ", "))
}

// Renderer is implemented by every experiment result.
type Renderer interface {
	Render(w io.Writer)
}

// ThroughputGrid holds throughput [tasks/s] for policies × x-axis points
// (DAG parallelism for Figures 4 and 7).
type ThroughputGrid struct {
	Title    string
	XLabel   string
	X        []int
	Policies []string
	// Tput[i][j] is the throughput of Policies[i] at X[j].
	Tput [][]float64
}

// Render writes the grid as an aligned table, one row per policy.
func (g *ThroughputGrid) Render(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", g.Title)
	fmt.Fprintf(w, "%-8s", g.XLabel)
	for _, x := range g.X {
		fmt.Fprintf(w, "%10d", x)
	}
	fmt.Fprintln(w)
	for i, p := range g.Policies {
		fmt.Fprintf(w, "%-8s", p)
		for j := range g.X {
			fmt.Fprintf(w, "%10.0f", g.Tput[i][j])
		}
		fmt.Fprintln(w)
	}
}

// Get returns the throughput for a policy name at parallelism x.
func (g *ThroughputGrid) Get(policy string, x int) float64 {
	pi, xi := -1, -1
	for i, p := range g.Policies {
		if p == policy {
			pi = i
		}
	}
	for j, v := range g.X {
		if v == x {
			xi = j
		}
	}
	if pi < 0 || xi < 0 {
		return 0
	}
	return g.Tput[pi][xi]
}

// gridFrom reshapes a scenario result into a throughput grid whose x-axis
// is the integer sweep the spec's points were built from.
func gridFrom(res *scenario.Result, title, xlabel string, xs []int) *ThroughputGrid {
	return &ThroughputGrid{
		Title:    title,
		XLabel:   xlabel,
		X:        xs,
		Policies: res.Policies,
		Tput:     res.Throughputs(),
	}
}

// bar renders a quick proportional ASCII bar.
func bar(v, max float64, width int) string {
	if max <= 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}
