package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"time"

	"dynasym/internal/experiments"
)

// The paper-cli workload: sequential `asymbench -exp all -scale 1 -seed s`
// child processes — every table and figure of the paper at paper scale,
// through internal/experiments and scenario.Run's own worker pool. It is
// the one path that never touches internal/service.

// paperIDs are the experiment ids that reproduce the paper (the ablations
// asymbench also prints are extras and not required).
var paperIDs = []string{
	"table1", "fig4a", "fig4b", "fig4c", "fig5", "fig6",
	"fig7a", "fig7b", "fig7c", "fig8", "fig9a", "fig9b", "fig9c", "fig10",
}

// cliSetups is how many times a paper-cli run performs and times its cheap
// set-up.
const cliSetups = 3

// cliRun is one finished asymbench invocation.
type cliRun struct {
	out     []byte
	cpu     time.Duration // user+system of the child
	peakRSS int64         // bytes
}

// cliFunc runs `asymbench -exp all` at a scale and seed. The real one
// starts a child process; the quick mode substitutes an in-process stand-in.
type cliFunc func(scale float64, seed uint64) (cliRun, error)

func processCLI(binDir, logDir string) cliFunc {
	bin := filepath.Join(binDir, "asymbench")
	n := 0
	return func(scale float64, seed uint64) (cliRun, error) {
		n++
		errLog, err := os.Create(filepath.Join(logDir, fmt.Sprintf("asymbench-%03d.stderr", n)))
		if err != nil {
			return cliRun{}, err
		}
		defer errLog.Close()
		var out bytes.Buffer
		cmd := exec.Command(bin, "-exp", "all", "-scale", strconv.FormatFloat(scale, 'g', -1, 64), "-seed", strconv.FormatUint(seed, 10))
		cmd.Stdout, cmd.Stderr = &out, errLog
		cmd.SysProcAttr = childAttr()
		if err := cmd.Start(); err != nil {
			return cliRun{}, err
		}
		trackChild(cmd)
		timer := time.AfterFunc(jobTimeout, func() { _ = cmd.Process.Kill() })
		// The child's peak RSS is polled from /proc while it runs: the
		// ru_maxrss that wait4 reports for a child is at least the parent's
		// own RSS at the fork, so it says more about this program than about
		// asymbench.
		var peak int64
		exited := make(chan struct{})
		polled := make(chan struct{})
		go func() {
			defer close(polled)
			for {
				if rss, err := procPeakRSS(cmd.Process.Pid); err == nil {
					peak = max(peak, rss)
				}
				select {
				case <-exited:
					return
				case <-time.After(20 * time.Millisecond):
				}
			}
		}()
		err = cmd.Wait()
		close(exited)
		<-polled
		timer.Stop()
		untrackChild(cmd)
		if err != nil {
			return cliRun{}, fmt.Errorf("asymbench -exp all -scale %g -seed %d: %w (stderr in %s)", scale, seed, err, errLog.Name())
		}
		ps := cmd.ProcessState
		return cliRun{out: out.Bytes(), cpu: ps.UserTime() + ps.SystemTime(), peakRSS: peak}, nil
	}
}

// quickCLI stands in for asymbench without a child process: every id, each
// with table 1 as its body. It exercises the parsing, verification and
// metric plumbing of the workload, not the experiments.
func quickCLI(scale float64, seed uint64) (cliRun, error) {
	t0 := time.Now()
	var out bytes.Buffer
	for _, id := range experiments.Names() {
		experiments.Table1().Render(&out)
		fmt.Fprintf(&out, "(%s in 0.0s)\n\n", id)
	}
	rss, _ := procPeakRSS(os.Getpid())
	return cliRun{out: out.Bytes(), cpu: time.Since(t0), peakRSS: rss}, nil
}

var timingLine = regexp.MustCompile(`(?m)^\((\S+) in [0-9.]+s\)\n`)

// checkCLIOutput verifies that every paper id printed a non-empty table,
// and returns the output with the wall-clock timing lines dropped — the
// form in which two runs of one seed must be byte-identical.
func checkCLIOutput(out []byte) ([]byte, error) {
	seen := map[string]bool{}
	prev := 0
	for _, m := range timingLine.FindAllSubmatchIndex(out, -1) {
		id := string(out[m[2]:m[3]])
		if len(bytes.Fields(out[prev:m[0]])) < 2 {
			return nil, fmt.Errorf("experiment %s printed no table", id)
		}
		seen[id] = true
		prev = m[1]
	}
	for _, id := range paperIDs {
		if !seen[id] {
			return nil, fmt.Errorf("experiment %s is missing from the output", id)
		}
	}
	return timingLine.ReplaceAll(out, nil), nil
}

// runCLI runs the paper-cli workload. Invocations alternate between two
// seeds; the first output of a seed is the reference every later run of
// that seed must equal byte for byte.
func runCLI(run cliFunc, o runOpts) (*measured, error) {
	res := &measured{workload: paperCLI, e2e: map[string]float64{}, layer: map[string]float64{}}
	seeds := [2]uint64{seedBase(o.seed) + 1, seedBase(o.seed) + 2}

	// Set-up: one small-scale invocation, which also proves the program
	// starts and prints every id before anything is timed.
	var setups []float64
	for attempt := 0; attempt < o.setupCount(cliSetups); attempt++ {
		t0 := time.Now()
		r, err := run(0.1, seeds[0])
		if err != nil {
			return nil, err
		}
		if _, err := checkCLIOutput(r.out); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", paperCLI, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	count := 0 // untraced: until the deadline
	if o.traced {
		count = max(o.window, 2)
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	genCPU0, _ := procCPU(os.Getpid())
	var refs [2][]byte
	var lat []float64
	var busy, cpu, verify time.Duration
	var peaks []float64
	for k := 0; o.traced && k < count || !o.traced && (k < 2 || time.Now().Before(deadline)); k++ {
		res.attempted++
		t0 := time.Now()
		r, err := run(1, seeds[k%2])
		took := time.Since(t0)
		busy += took
		lat = append(lat, ms(took))
		v0 := time.Now()
		if err == nil {
			var norm []byte
			if norm, err = checkCLIOutput(r.out); err == nil {
				if refs[k%2] == nil {
					refs[k%2] = norm
				} else if !bytes.Equal(refs[k%2], norm) {
					err = fmt.Errorf("run %d of seed %d differs from the first run of that seed", k, seeds[k%2])
				}
			}
		}
		verify += time.Since(v0)
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
			continue
		}
		cpu += r.cpu
		peaks = append(peaks, float64(r.peakRSS))
	}
	genCPU1, _ := procCPU(os.Getpid())

	sort.Float64s(lat)
	jobs := float64(res.attempted)
	res.e2e["setup_s"] = median(setups)
	res.e2e["job_p50_ms"] = percentile(lat, 50)
	res.e2e["job_p90_ms"] = percentile(lat, 90)
	res.e2e["jobs_per_s"] = jobs / busy.Seconds()
	res.e2e["cpu_ms_per_job"] = ms(cpu) / jobs
	// The peak of a short-lived process is where the collector happened to
	// be when it exited; the median over invocations is the typical one.
	res.e2e["peak_rss_mb"] = median(peaks) / (1 << 20)
	loadgenRows(res.layer, lat, 0, verify, 0, genCPU1-genCPU0, jobs)
	return res, nil
}
