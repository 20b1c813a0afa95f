// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each figure that is one grid — Figures 4 to 8 and
// the policy-set ablations — is a family registered in internal/scenario,
// which the daemon serves like any other; its entry here is only its view,
// a function from the family's scenario.Result to the figure's table. The
// rest are drivers, each for a stated reason: Table 1 is not a grid,
// Figures 9 and 10 size their spec from a calibration run, and the width and
// inference ablations compare several specs. cmd/asymbench exposes both
// kinds through this package's catalog (Names, Run).
//
// The experiment index lives in EXPERIMENTS.md ("Paper experiments") and
// README.md maps the figures onto families; expected shapes (who wins, by
// roughly what factor) are asserted by this package's tests and recorded
// against the paper in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"dynasym/internal/scenario"
)

// catalog is the one ordered list of experiments, in paper order: Names
// and Run both read it, so an id that runs is an id that is listed. An
// entry is either a view over a registered family or a driver.
var catalog = []struct {
	id string
	// family and view: the id renders the registered family's result.
	family string
	view   func(*scenario.Result) Renderer
	// run: a driver, for an id that is not one grid. Scale shrinks it as
	// it shrinks a family (scenario.ScaleTasks).
	run func(scale float64, seed uint64) Renderer
}{
	{id: "table1", run: func(float64, uint64) Renderer { return Table1() }},
	{id: "fig4a", family: "fig4a", view: throughputView("Figure 4 (MatMul): throughput under co-running interference on core 0")},
	{id: "fig4b", family: "fig4b", view: throughputView("Figure 4 (Copy): throughput under co-running interference on core 0")},
	{id: "fig4c", family: "fig4c", view: throughputView("Figure 4 (Stencil): throughput under co-running interference on core 0")},
	{id: "fig5", family: "fig5", view: fig5},
	{id: "fig6", family: "fig5", view: fig6},
	{id: "fig7a", family: "fig7a", view: throughputView("Figure 7 (MatMul): throughput under DVFS on the Denver cluster")},
	{id: "fig7b", family: "fig7b", view: throughputView("Figure 7 (Copy): throughput under DVFS on the Denver cluster")},
	{id: "fig7c", family: "fig7c", view: throughputView("Figure 7 (Stencil): throughput under DVFS on the Denver cluster")},
	{id: "fig8", family: "fig8", view: fig8},
	{id: "fig9a", run: fig9Places("")},
	{id: "fig9b", run: fig9Places("RWS")},
	{id: "fig9c", run: fig9Places("DAM-P")},
	{id: "fig10", run: func(s float64, seed uint64) Renderer { return fig10(s, seed) }},
	{id: "ablation-alpha", family: "ablation-alpha", view: ablationAlpha},
	{id: "ablation-steal", family: "ablation-steal", view: throughputView("Ablation: stealing of high-priority tasks re-enabled")},
	{id: "ablation-wake", family: "ablation-wake", view: throughputView("Ablation: wake-time routing disabled (dispatch-only placement)")},
	{id: "ablation-dheft", family: "ablation-dheft", view: throughputView("Ablation: dHEFT earliest-finish-time baseline")},
	{id: "ablation-width", run: func(s float64, seed uint64) Renderer { return ablationWidth(s, seed) }},
	{id: "ablation-sampled", family: "ablation-sampled", view: throughputView("Ablation: sampled global search (the paper's scalability future work)")},
	{id: "ablation-infer", run: func(s float64, seed uint64) Renderer { return ablationInfer(s, seed) }},
}

// fig9Places renders the per-iteration times (Figure 9a) or, given a policy, its
// per-place task counts (Figures 9b and 9c).
func fig9Places(places string) func(float64, uint64) Renderer {
	return func(s float64, seed uint64) Renderer {
		res := fig9(s, seed)
		if places == "" {
			return res
		}
		return placesRenderer{res, places}
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

// Run runs the experiment with the given id (one of Names) at a scale
// (1.0, like 0, is paper scale) and seed: a view runs its family's spec at
// that scale with the seed in place of the family's default.
func Run(id string, scale float64, seed uint64) (Renderer, error) {
	for _, e := range catalog {
		if e.id != id {
			continue
		}
		if e.run != nil {
			return e.run(scale, seed), nil
		}
		f, _ := scenario.Lookup(e.family)
		spec := f.Spec(scale)
		spec.Seed = seed
		return e.view(scenario.MustRun(spec)), nil
	}
	return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(Names(), ", "))
}

// View returns the registered family an experiment id renders and the view
// that renders the family's result, however it was run (in process or by
// the daemon); ok is false for a driver and for an id outside the catalog.
func View(id string) (family string, view func(*scenario.Result) Renderer, ok bool) {
	for _, e := range catalog {
		if e.id == id && e.view != nil {
			return e.family, e.view, true
		}
	}
	return "", nil, false
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
	pi, xi := slices.Index(g.Policies, policy), slices.Index(g.X, x)
	if pi < 0 || xi < 0 {
		return 0
	}
	return g.Tput[pi][xi]
}

// throughputView renders a family's result as a throughput grid whose
// x-axis is its points' DAG parallelisms.
func throughputView(title string) func(*scenario.Result) Renderer {
	return func(res *scenario.Result) Renderer {
		g := &ThroughputGrid{Title: title, XLabel: "P", Policies: res.Policies, Tput: res.Throughputs()}
		for _, pt := range res.Points {
			g.X = append(g.X, pt.Parallelism)
		}
		return g
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
