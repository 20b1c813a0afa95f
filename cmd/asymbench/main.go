// Command asymbench regenerates the paper's tables and figures, and runs
// the named scenario families that extend the evaluation beyond the paper.
//
// Usage:
//
//	asymbench -exp fig4a                 # one experiment
//	asymbench -exp all                   # everything, paper order
//	asymbench -exp fig4a -scale 0.1     # scaled down (faster)
//	asymbench -scenario burst-sweep     # a registered scenario family
//	asymbench -list
//
// Output is plain text, one table per experiment; see EXPERIMENTS.md for
// the mapping to the paper's figures and the expected shapes.
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
		exp      = flag.String("exp", "", "experiment id (see -list) or 'all'")
		scenName = flag.String("scenario", "", "named scenario family (see -list)")
		scale    = flag.Float64("scale", 1.0, "experiment scale: 1.0 = paper scale")
		seed     = flag.Uint64("seed", 42, "base random seed")
		progress = flag.Bool("progress", false, "report per-cell progress on stderr while a -scenario runs")
		explain  = flag.Bool("explain", false, "with -scenario: print per-policy schedule reports (time breakdown, steal matrix, PTT convergence) after the table")
		list     = flag.Bool("list", false, "list experiment ids and scenario families")
	)
	flag.Parse()
	if err := scenario.CheckScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "asymbench: -%v\n", err)
		os.Exit(2)
	}

	if *list || (*exp == "" && *scenName == "") {
		fmt.Println("experiments:")
		for _, n := range experiments.Names() {
			fmt.Printf("  %s\n", n)
		}
		fmt.Println("scenario families (-scenario):")
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
		if *exp == "" && *scenName == "" {
			os.Exit(2)
		}
		return
	}

	if *scenName != "" {
		f, ok := scenario.Lookup(*scenName)
		if !ok {
			fmt.Fprintf(os.Stderr, "asymbench: unknown scenario %q (available: %s)\n",
				*scenName, strings.Join(scenario.Names(), ", "))
			os.Exit(1)
		}
		spec := f.Spec(*scale)
		spec.Seed = *seed
		spec.Probe = *explain
		if *progress {
			// The engine reports (done, total) monotonically, once per
			// finished (policy × point × rep) cell.
			spec.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d cells", *scenName, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		start := time.Now()
		res, err := scenario.Run(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asymbench: %v\n", err)
			os.Exit(1)
		}
		res.WriteTable(os.Stdout)
		fmt.Printf("(%s on %s in %.1fs)\n", *scenName, res.Topo, time.Since(start).Seconds())
		if *explain {
			explainResult(res)
		}
		if *exp == "" {
			return
		}
	}
	if *explain && *scenName == "" {
		fmt.Fprintln(os.Stderr, "asymbench: -explain requires -scenario")
		os.Exit(1)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.Names()
	}
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, experiments.Scale(*scale), *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asymbench: %v\n", err)
			os.Exit(1)
		}
		res.Render(os.Stdout)
		fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
}

// explainResult prints one schedule report per policy, each merged over
// the policy's full row of cells (every point and repetition).
func explainResult(res *scenario.Result) {
	for pi, pol := range res.Policies {
		var merged *metrics.Sched
		for xi := range res.Cells[pi] {
			if s := res.Cells[pi][xi].Sched(); s != nil {
				if merged == nil {
					merged = s
				} else {
					merged.Merge(s)
				}
			}
		}
		if merged == nil {
			continue
		}
		fmt.Printf("\n## schedule report: %s\n", pol)
		merged.WriteReport(os.Stdout)
	}
}
