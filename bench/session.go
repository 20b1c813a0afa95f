package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// session is one invocation's fixed context: where the repository is, what
// BENCHMARK.json lists, and how workloads reach the programs under test.
type session struct {
	root  string
	spec  *benchmarkSpec
	quick bool
	shape shape
	// outDir receives one directory per run: node logs, the run header,
	// the traced run's Chrome trace.
	outDir string
	binDir string
	// buildTook is how long `go build` of the programs took (0 in quick
	// mode, which builds nothing).
	buildTook time.Duration
}

// newSession locates the repository and, unless quick, builds the programs.
func newSession(quick bool) (*session, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	spec, err := loadBenchmarkSpec(root)
	if err != nil {
		return nil, err
	}
	s := &session{root: root, spec: spec, quick: quick, shape: defaultShape,
		outDir: filepath.Join(root, buildDir, "runs")}
	if quick {
		s.shape = quickShape
		return s, nil
	}
	if s.binDir, s.buildTook, err = buildPrograms(root); err != nil {
		return nil, err
	}
	return s, nil
}

// header is the provenance written beside every run's logs.
type header struct {
	Commit    string  `json:"commit"`
	Go        string  `json:"go"`
	NumCPU    int     `json:"nproc"`
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Quick     bool    `json:"quick"`
	Setups    int     `json:"setups"`
	Clients   int     `json:"clients"`
	Warmup    int     `json:"warmup_jobs"`
	Window    int     `json:"traced_window_jobs"`
	JobCache  int     `json:"job_cache"`
	CellCache int     `json:"cell_cache"`
}

func (s *session) commit() string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = s.root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // a checkout that is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// run measures one workload once and returns its metrics: end-to-end ones
// always, per-layer ones (counters, ledger, kernels) when o.traced.
func (s *session) run(name string, o runOpts) (*measured, error) {
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	trace := 0
	if o.traced {
		trace = 1
	}
	logDir := filepath.Join(s.outDir, fmt.Sprintf("%s-seed%d-trace%d", name, o.seed, trace))
	if err := os.RemoveAll(logDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	h := header{Commit: s.commit(), Go: runtime.Version(), NumCPU: runtime.NumCPU(),
		Workload: name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced, Quick: s.quick,
		JobCache: s.shape.jobCache, CellCache: s.shape.cellCache}

	var m *measured
	if name == paperCLI {
		h.Clients, h.Window, h.Setups = 1, 2, o.setupCount(cliSetups)
		if err := writeJSON(filepath.Join(logDir, "header.json"), h); err != nil {
			return nil, err
		}
		cli := cliFunc(quickCLI)
		if !s.quick {
			cli = processCLI(s.binDir, logDir)
		}
		var err error
		if m, err = runCLI(cli, o); err != nil {
			return nil, err
		}
	} else {
		w, err := newWorkload(name, o.seed, s.shape)
		if err != nil {
			return nil, err
		}
		if w.clients > runtime.NumCPU() {
			return nil, fmt.Errorf("%s needs %d client connections but the machine has %d CPUs", name, w.clients, runtime.NumCPU())
		}
		if s.quick && o.window == 0 {
			o.window = 12
		}
		h.Clients, h.Warmup, h.Window, h.Setups = w.clients, w.warmup, w.window, o.setupCount(w.setups)
		if err := writeJSON(filepath.Join(logDir, "header.json"), h); err != nil {
			return nil, err
		}
		launch := inProcessLauncher(s.shape)
		if !s.quick {
			launch = processLauncher(s.binDir)
		}
		if m, err = runHTTP(w, launch, logDir, o); err != nil {
			return nil, err
		}
		if o.traced {
			if err := runLedger(w, s.shape, logDir, m); err != nil {
				return nil, fmt.Errorf("%s ledger: %w", name, err)
			}
		}
	}
	if o.traced {
		kernelRows(m.layer, s.quick)
		m.layer["bench.build_s"] = s.buildTook.Seconds()
		if name == paperCLI {
			fillAbsent(s.spec.PerLayer, m.layer)
		}
	}
	return m, nil
}

// fillAbsent gives every listed per-layer metric a value under paper-cli,
// which has no service, no cells cache and no HTTP ledger: those rows read 0
// there rather than going missing. HTTP workloads get no such help — a row
// they fail to measure is an error.
func fillAbsent(specs []metricSpec, values map[string]float64) {
	for _, m := range specs {
		if _, ok := values[m.Name]; !ok {
			values[m.Name] = 0
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
