package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"text/tabwriter"
)

// report is what a full-set invocation writes with -report and what
// -compare reads: every workload of every repeated set.
type report struct {
	Commit  string      `json:"commit"`
	Go      string      `json:"go"`
	NumCPU  int         `json:"nproc"`
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	Traced  bool        `json:"traced"`
	Sets    []reportSet `json:"sets"`
}

// reportSet is one pass over all workloads, by workload name.
type reportSet map[string]reportRun

type reportRun struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// exactCounts are the per-layer rows that are simulated or structural
// counts: on a traced run (fixed job count) they must repeat exactly for a
// given -seed, and a change meant only to make the programs faster must
// leave them identical.
var exactCounts = []string{
	"loadgen.jobs",
	"service.jobs_done", "service.jobs_absorbed",
	"service.cell_runs", "service.cell_cache_hits", "service.cell_cache_misses",
	"service.cell_cache_evictions", "service.job_cache_evictions", "service.peer_shards",
	"service.request_bytes_per_job",
	"simrt.tasks", "simrt.steals", "simrt.dispatches",
}

// runSets runs `repeat` full sets, alternating the workload order so that
// no workload always runs on the state the same predecessor left, prints
// each as a table, and writes the report. It reports whether every job of
// every run was correct.
func (s *session) runSets(out io.Writer, o runOpts, repeat int, reportPath string) (bool, error) {
	rep := report{Commit: s.commit(), Go: runtime.Version(), NumCPU: runtime.NumCPU(),
		Seed: o.seed, Seconds: o.seconds, Traced: o.traced}
	fmt.Fprintf(out, "# commit %s, %s, nproc %d, seed %d, %gs timed, traced %t, build %.2fs\n",
		rep.Commit, rep.Go, rep.NumCPU, o.seed, o.seconds, o.traced, s.buildTook.Seconds())
	ok := true
	for k := 0; k < max(repeat, 1); k++ {
		order := slices.Clone(workloadNames)
		if k%2 == 1 {
			slices.Reverse(order)
		}
		set := reportSet{}
		for _, name := range order {
			m, err := s.run(name, o)
			if err != nil {
				return false, err
			}
			if m.failed > 0 {
				ok = false
				fmt.Fprintf(out, "!! %s: %d of %d jobs failed; first: %v\n", name, m.failed, m.attempted, m.firstErr)
			}
			run := reportRun{Attempted: m.attempted, Failed: m.failed, EndToEnd: m.e2e}
			if o.traced {
				run.PerLayer = m.layer
			}
			set[name] = run
		}
		rep.Sets = append(rep.Sets, set)
		fmt.Fprintf(out, "\n## set %d\n", k+1)
		s.printSet(out, set, o.traced)
	}
	if reportPath != "" {
		if err := writeJSON(reportPath, rep); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// printSet prints one set: a row per metric, a column per workload, every
// metric by name with its unit.
func (s *session) printSet(out io.Writer, set reportSet, traced bool) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\t")
	for _, w := range workloadNames {
		fmt.Fprintf(tw, "%s\t", w)
	}
	fmt.Fprintln(tw)
	row := func(name, unit string, value func(reportRun) float64) {
		fmt.Fprintf(tw, "%s\t%s\t", name, unit)
		for _, w := range workloadNames {
			fmt.Fprintf(tw, "%.6g\t", value(set[w]))
		}
		fmt.Fprintln(tw)
	}
	row("jobs (n)", "count", func(r reportRun) float64 { return float64(r.Attempted) })
	row("failed_frac", "ratio", func(r reportRun) float64 { return float64(r.Failed) / float64(max(r.Attempted, 1)) })
	for _, m := range s.spec.EndToEnd {
		row(m.Name, m.Unit, func(r reportRun) float64 { return r.EndToEnd[m.Name] })
	}
	if traced {
		for _, m := range s.spec.PerLayer {
			row(m.Name, m.Unit, func(r reportRun) float64 { return r.PerLayer[m.Name] })
		}
	}
	tw.Flush()
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Sets) == 0 {
		return nil, fmt.Errorf("%s: no sets", path)
	}
	return &r, nil
}

// series collects one metric of one workload across a report's sets.
func (r *report) series(workload, metric string, layer bool) []float64 {
	var xs []float64
	for _, set := range r.Sets {
		run, ok := set[workload]
		if !ok {
			continue
		}
		src := run.EndToEnd
		if layer {
			src = run.PerLayer
		}
		if v, ok := src[metric]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// verdict judges side b against side a for one metric. Worse by more than
// the bound is a regression; but when either side's own runs spread wider
// than the bound the medians cannot carry that judgement, and the cell is
// unresolved unless every run of b is better than every run of a.
func verdict(m metricSpec, a, b []float64) (delta float64, word string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		delta = (mb - ma) / ma
	}
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	if max(quartileSpread(a), quartileSpread(b)) > m.Bound {
		sa, sb := sortedCopy(a), sortedCopy(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if m.Better == "higher" {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return delta, "unresolved"
		}
	}
	if worse > m.Bound {
		return delta, "REGRESSION"
	}
	return delta, "ok"
}

// compareReports prints, per workload and end-to-end metric, both medians,
// the delta, the bound and a verdict, then checks the exact-repeat counts
// when both reports come from traced runs. It reports whether b holds up:
// no regression, no failed job, no count that differs.
func compareReports(out io.Writer, spec *benchmarkSpec, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "# A: %s (commit %s, seed %d, %d sets)\n# B: %s (commit %s, seed %d, %d sets)\n",
		pathA, a.Commit, a.Seed, len(a.Sets), pathB, b.Commit, b.Seed, len(b.Sets))
	ok := true
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian A\tmedian B\tdelta\tspread A\tspread B\tbound\tverdict\t")
	for _, w := range workloadNames {
		for _, m := range spec.EndToEnd {
			xa, xb := a.series(w, m.Name, false), b.series(w, m.Name, false)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			delta, word := verdict(m, xa, xb)
			if word == "REGRESSION" {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\t\n",
				w, m.Name, m.Unit, median(xa), median(xb), 100*delta,
				100*quartileSpread(xa), 100*quartileSpread(xb), 100*m.Bound, word)
		}
	}
	tw.Flush()

	for _, r := range []*report{a, b} {
		for k, set := range r.Sets {
			names := make([]string, 0, len(set))
			for w := range set {
				names = append(names, w)
			}
			sort.Strings(names)
			for _, w := range names {
				if set[w].Failed > 0 {
					ok = false
					fmt.Fprintf(out, "!! commit %s set %d %s: %d of %d jobs failed\n", r.Commit, k+1, w, set[w].Failed, set[w].Attempted)
				}
			}
		}
	}

	switch {
	case !a.Traced || !b.Traced:
		fmt.Fprintln(out, "# exact-repeat counts not compared: they need traced runs (-trace 1) on both sides")
	case a.Seed != b.Seed || a.Seconds != b.Seconds:
		fmt.Fprintln(out, "# exact-repeat counts not compared: the reports differ in -seed or -seconds")
	default:
		for _, w := range workloadNames {
			for _, name := range exactCounts {
				all := append(a.series(w, name, true), b.series(w, name, true)...)
				for _, v := range all {
					if v != all[0] {
						ok = false
						fmt.Fprintf(out, "!! %s %s does not repeat exactly: %v\n", w, name, all)
						break
					}
				}
			}
		}
		fmt.Fprintf(out, "# exact-repeat counts checked: %d rows x %d workloads\n", len(exactCounts), len(workloadNames))
	}
	return ok, nil
}
