// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment is a thin spec table over the
// declarative scenario engine (internal/scenario): the driver assembles a
// scenario.Spec literal (platform, disturbances, workload, policy set,
// sweep points), runs it, and reshapes the aggregated metrics into the
// figure's result type. cmd/asymbench exposes the drivers on the command
// line and the repository's benchmarks wrap them with testing.B.
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
)

// Scale shrinks an experiment: 1.0 is paper scale, smaller values reduce
// task counts proportionally (minimum sizes keep results meaningful).
// Benchmarks use 0.1 to keep iterations fast; the CLI defaults to 1.0.
type Scale float64

// Apply scales a task count, keeping at least min.
func (s Scale) Apply(n, min int) int {
	if s <= 0 || s >= 1 {
		return n
	}
	scaled := int(float64(n) * float64(s))
	if scaled < min {
		return min
	}
	return scaled
}

// Names of the built-in experiments, in paper order.
func Names() []string {
	return []string{
		"table1",
		"fig4a", "fig4b", "fig4c",
		"fig5", "fig6",
		"fig7a", "fig7b", "fig7c",
		"fig8",
		"fig9a", "fig9b", "fig9c",
		"fig10",
		"ablation-alpha", "ablation-steal", "ablation-dheft", "ablation-width", "ablation-sampled", "ablation-infer",
	}
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
