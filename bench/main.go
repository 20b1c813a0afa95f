// Command bench is the repository's end-to-end benchmark: it builds
// cmd/asymd and cmd/asymbench, runs them as child processes, drives them
// with a closed-loop generator, verifies every answer against the library,
// and prints the metrics BENCHMARK.json names. See README.md.
//
//	go run ./bench -workload warm-cell -seed 1 -seconds 10 -trace 0   # one run, JSON on the last line
//	go run ./bench -seed 1                                            # all workloads, a table
//	go run ./bench -seed 1 -trace 1                                   # the per-layer (traced ledger) run
//	go run ./bench -repeat 3 -report a.json                           # repeated sets for -compare
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// benchmarkSpec mirrors BENCHMARK.json, the single list of workloads and
// metrics (names, units, directions, bounds) this program emits.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkSpec(root string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// named projects measured values onto the metrics BENCHMARK.json lists,
// attaching units; a listed metric the run did not produce is an error.
func named(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is listed in BENCHMARK.json but was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}

// watchdog is the longest one invocation may take before it gives up: under
// the driver's 180-second limit, with room to stop the children.
const watchdog = 170 * time.Second

func main() {
	var (
		workloadFlag = flag.String("workload", "", "run one workload and print its result as JSON on the last line (default: all, as a table)")
		seed         = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds      = flag.Float64("seconds", 0, "length of the timed section (default: run_seconds from BENCHMARK.json)")
		traceFlag    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced ledger run, per-layer metrics")
		quick        = flag.Bool("quick", false, "in-process smoke: httptest servers, small caches, a handful of jobs, no child processes")
		repeat       = flag.Int("repeat", 1, "with no -workload: run this many full sets, alternating workload order")
		report       = flag.String("report", "", "with no -workload: also write the sets as JSON here (input of -compare)")
		compare      = flag.Bool("compare", false, "compare two -report files given as arguments")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		root, err := moduleRoot()
		if err != nil {
			fatal(err)
		}
		spec, err := loadBenchmarkSpec(root)
		if err != nil {
			fatal(err)
		}
		ok, err := compareReports(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	// Children die with the benchmark on every path: signals and the
	// watchdog land here, panics and errors in fatal.
	budget := watchdog
	if *workloadFlag == "" {
		budget *= time.Duration(max(*repeat, 1) * len(workloadNames))
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "bench: %v: stopping children\n", s)
		case <-time.After(budget):
			fmt.Fprintln(os.Stderr, "bench: watchdog expired: stopping children")
		}
		killChildren()
		os.Exit(1)
	}()
	defer func() {
		if p := recover(); p != nil {
			killChildren()
			panic(p)
		}
	}()

	s, err := newSession(*quick)
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = float64(s.spec.RunSeconds)
	}
	o := runOpts{seed: *seed, seconds: *seconds, traced: *traceFlag != 0}

	if *workloadFlag != "" {
		m, err := s.run(*workloadFlag, o)
		if err != nil {
			fatal(err)
		}
		specs, values := s.spec.EndToEnd, m.e2e
		if o.traced {
			specs, values = s.spec.PerLayer, m.layer
		}
		metrics, err := named(specs, values)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(resultLine{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: metrics})
		if err != nil {
			fatal(err)
		}
		if m.firstErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d jobs failed; first: %v\n", m.workload, m.failed, m.attempted, m.firstErr)
		}
		fmt.Println(string(line))
		if m.failed != 0 {
			os.Exit(1)
		}
		return
	}

	ok, err := s.runSets(os.Stdout, o, *repeat, *report)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	killChildren()
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
