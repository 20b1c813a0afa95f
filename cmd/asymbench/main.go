// Command asymbench regenerates the paper's tables and figures, and runs
// any registered scenario family (the paper's one-grid figures are families).
//
// Usage:
//
//	asymbench -exp fig4a                 # one experiment, in the figure's layout
//	asymbench -exp all                   # every experiment, paper order
//	asymbench -exp fig4a -scale 0.1     # scaled down (faster)
//	asymbench -exp burst-sweep          # a family: its table (no figure view)
//	asymbench -exp fig4a -explain       # a family's table and schedule reports
//	asymbench -list
//
// An id that is a family runs as that family when -explain or -progress is
// given or when no experiment views it; under -exp all, an id that is not a
// family renders as it does without those flags. See EXPERIMENTS.md for the
// mapping to the paper's figures and the expected shapes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dynasym/internal/experiments"
	"dynasym/internal/metrics"
	"dynasym/internal/scenario"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id, scenario family (see -list) or 'all'")
		scale    = flag.Float64("scale", 1.0, "experiment scale: 1.0 = paper scale")
		seed     = flag.Uint64("seed", 42, "base random seed")
		progress = flag.Bool("progress", false, "run -exp as its family, reporting per-cell progress on stderr")
		explain  = flag.Bool("explain", false, "run -exp as its family and print per-policy schedule reports (time breakdown, steal matrix, PTT convergence) after the table")
		list     = flag.Bool("list", false, "list experiment ids and scenario families")
	)
	flag.Parse()
	if err := scenario.CheckScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "asymbench: -%v\n", err)
		os.Exit(2)
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, n := range experiments.Names() {
			fmt.Printf("  %s\n", n)
		}
		fmt.Println("scenario families:")
		width := 0
		for _, n := range scenario.Names() {
			if len(n) > width {
				width = len(n)
			}
		}
		for _, n := range scenario.Names() {
			f, _ := scenario.Lookup(n)
			fmt.Printf("  %-*s  %s\n", width, n, f.Desc)
		}
		if *exp == "" {
			os.Exit(2)
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.Names()
	}
	for _, id := range ids {
		_, _, hasView := experiments.View(id)
		if f, ok := scenario.Lookup(id); ok && (*explain || *progress || !hasView) {
			if err := runFamily(f, *scale, *seed, *progress, *explain); err != nil {
				fmt.Fprintf(os.Stderr, "asymbench: %v\n", err)
				os.Exit(1)
			}
			continue
		}
		if (*explain || *progress) && *exp != "all" {
			fmt.Fprintf(os.Stderr, "asymbench: -explain and -progress need a scenario family; %s is not one (see -list)\n", id)
			os.Exit(1)
		}
		start := time.Now()
		res, err := experiments.Run(id, *scale, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asymbench: %v (families: %s)\n", err, strings.Join(scenario.Names(), ", "))
			os.Exit(1)
		}
		res.Render(os.Stdout)
		fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
}

// runFamily runs a registered family at a scale and seed and prints its
// throughput table, then with explain its schedule reports.
func runFamily(f scenario.Family, scale float64, seed uint64, progress, explain bool) error {
	spec := f.Spec(scale)
	spec.Seed = seed
	spec.Probe = explain
	if progress {
		// The engine reports (done, total) monotonically, once per
		// finished (policy × point × rep) cell.
		spec.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%s: %d/%d cells", f.Name, done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	start := time.Now()
	res, err := scenario.Run(spec)
	if err != nil {
		return err
	}
	res.WriteTable(os.Stdout)
	fmt.Printf("(%s on %s in %.1fs)\n", f.Name, res.Topo, time.Since(start).Seconds())
	if explain {
		explainResult(res)
	}
	return nil
}

// explainResult prints one schedule report per policy, each merged over
// the policy's full row of cells (every point and repetition).
func explainResult(res *scenario.Result) {
	for pi, pol := range res.Policies {
		var merged *metrics.Sched
		for _, c := range res.Cells[pi] {
			for _, r := range c.Runs {
				if r.Sched == nil {
					continue
				}
				if merged == nil {
					merged = &metrics.Sched{}
				}
				merged.Merge(r.Sched)
			}
		}
		if merged == nil {
			continue
		}
		fmt.Printf("\n## schedule report: %s\n", pol)
		merged.WriteReport(os.Stdout)
	}
}
