package experiments

import (
	"fmt"
	"io"
	"sort"

	"dynasym/internal/core"
	"dynasym/internal/metrics"
	"dynasym/internal/scenario"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

// Fig9Config parameterizes the K-means experiment (Figure 9): per-iteration
// execution time of RWS, DAM-C and DAM-P on the 16-core dual-socket Haswell
// node, with a co-runner occupying socket 0 during iterations
// [From, To). The paper's interference window is iterations 20–70 of 100.
type Fig9Config struct {
	Iters    int
	From, To int
	Seed     uint64
	Scale    Scale
}

func (c Fig9Config) defaults() Fig9Config {
	if c.Iters == 0 {
		c.Iters = 100
	}
	if c.To == 0 {
		c.From, c.To = 20, 70
	}
	return c
}

// Fig9Result holds per-iteration statistics per policy. The interference
// window is defined in absolute virtual time (calibrated so it opens at
// iteration From under uninterfered pacing); because interference slows
// iterations down, the set of affected iteration indices differs per
// policy — InWindow reports the actual overlap.
type Fig9Result struct {
	Policies []string
	Stats    [][]metrics.IterStat
	Topo     *topology.Platform
	// WindowIters is the configured iteration window (paper labeling).
	WindowIters [2]int
	// WindowTime is the absolute interference interval in seconds.
	WindowTime [2]float64
	// AvgIter is the calibrated uninterfered iteration time.
	AvgIter float64
}

// kmeansSpec assembles the Haswell16 K-means scenario, optionally with the
// socket-0 co-runner active during [from, to) seconds of virtual time.
func kmeansSpec(name string, kmCfg workloads.KMeansConfig, pols []core.Policy, seed uint64, disturb []scenario.Disturbance) scenario.Spec {
	return scenario.Spec{
		Name:     name,
		Platform: scenario.PlatformSpec{Preset: "haswell16"},
		Workload: scenario.WorkloadSpec{Kind: scenario.KMeans, KMeans: kmCfg},
		Disturb:  disturb,
		Policies: pols,
		Seed:     seed,
	}
}

// Fig9 runs the experiment. The interference window is positioned in time
// by first calibrating the uninterfered iteration duration with DAM-C.
func Fig9(cfg Fig9Config) *Fig9Result {
	cfg = cfg.defaults()
	kmCfg := workloads.KMeansConfig{MaxIters: cfg.Iters}.Defaults()
	kmCfg.N = cfg.Scale.tasks(kmCfg.N, 1<<13)

	// Calibration run: DAM-C, no interference.
	calib := scenario.MustRun(kmeansSpec("fig9-calibration", kmCfg, []core.Policy{core.DAMC()}, cfg.Seed, nil))
	stats := calib.Cells[0][0].Run().Iters
	total := 0.0
	for _, st := range stats {
		total += st.End - st.Start
	}
	avgIter := total / float64(len(stats))

	res := &Fig9Result{
		WindowIters: [2]int{cfg.From, cfg.To},
		WindowTime:  [2]float64{float64(cfg.From) * avgIter, float64(cfg.To) * avgIter},
		AvgIter:     avgIter,
	}
	// Main runs: the co-runner time-shares all of socket 0 (cluster 0)
	// equally during the calibrated window.
	pols := []core.Policy{core.RWS(), core.DAMC(), core.DAMP()}
	sres := scenario.MustRun(kmeansSpec("fig9", kmCfg, pols, cfg.Seed, []scenario.Disturbance{{
		Kind:    scenario.CoRunCPU,
		Cluster: 0,
		Share:   0.5,
		From:    res.WindowTime[0],
		To:      res.WindowTime[1],
	}}))
	res.Topo = sres.Topo
	res.Policies = sres.Policies
	for pi := range sres.Policies {
		res.Stats = append(res.Stats, sres.Cells[pi][0].Run().Iters)
	}
	return res
}

// policyIndex returns the row for a policy name, or -1.
func (r *Fig9Result) policyIndex(name string) int {
	for i, p := range r.Policies {
		if p == name {
			return i
		}
	}
	return -1
}

// InWindow reports whether iteration stat overlaps the interference
// interval.
func (r *Fig9Result) InWindow(st metrics.IterStat) bool {
	return st.End > r.WindowTime[0] && st.Start < r.WindowTime[1]
}

// InWindowSettled reports whether the iteration lies fully inside the
// interference interval, past the adaptation transient (the PTT needs a few
// observations before placements migrate, so the first post-onset
// iterations are excluded when comparing steady-state behaviour).
func (r *Fig9Result) InWindowSettled(st metrics.IterStat) bool {
	return st.Start >= r.WindowTime[0]+4*r.AvgIter && st.End <= r.WindowTime[1]
}

// MeanSettledIterTime returns a policy's mean iteration wall time over
// iterations fully inside the interference window, past the adaptation
// transient.
func (r *Fig9Result) MeanSettledIterTime(policy string) float64 {
	i := r.policyIndex(policy)
	if i < 0 {
		return 0
	}
	sum, n := 0.0, 0
	for _, st := range r.Stats[i] {
		if r.InWindowSettled(st) {
			sum += st.End - st.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WideShare returns the fraction of tasks the policy executed at width > 1
// inside the interference window (Figure 9c's molding behaviour).
func (r *Fig9Result) WideShare(policy string) float64 {
	i := r.policyIndex(policy)
	if i < 0 {
		return 0
	}
	places := r.Topo.Places()
	var wide, total int64
	for _, st := range r.Stats[i] {
		if !r.InWindow(st) {
			continue
		}
		for _, pc := range st.Places {
			total += pc.N
			if places[pc.ID].Width > 1 {
				wide += pc.N
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(wide) / float64(total)
}

// Render prints Figure 9a (iteration times), marking iterations that
// overlap the interference window.
func (r *Fig9Result) Render(w io.Writer) {
	fmt.Fprintf(w, "# Figure 9a: K-means per-iteration time [ms]; interference window targets iterations [%d, %d)\n",
		r.WindowIters[0], r.WindowIters[1])
	fmt.Fprintf(w, "%-6s", "iter")
	for _, p := range r.Policies {
		fmt.Fprintf(w, "%10s", p)
	}
	fmt.Fprintln(w, "  (* = interfered, first policy's timeline)")
	n := 0
	for _, st := range r.Stats {
		if len(st) > n {
			n = len(st)
		}
	}
	for k := 0; k < n; k++ {
		fmt.Fprintf(w, "%-6d", k)
		interfered := false
		for i := range r.Policies {
			if k < len(r.Stats[i]) {
				fmt.Fprintf(w, "%10.2f", (r.Stats[i][k].End-r.Stats[i][k].Start)*1e3)
				if i == 0 {
					interfered = r.InWindow(r.Stats[i][k])
				}
			} else {
				fmt.Fprintf(w, "%10s", "-")
			}
		}
		if interfered {
			fmt.Fprint(w, "  *")
		}
		fmt.Fprintln(w)
	}
}

// placesRenderer renders Figure 9b/c from a Fig9 result, for a policy of
// Fig9's fixed set.
type placesRenderer struct {
	res    *Fig9Result
	policy string
}

func (p placesRenderer) Render(w io.Writer) { _ = p.res.RenderPlaces(w, p.policy) }

// RenderPlaces prints Figure 9b/c: per-iteration task counts per execution
// place for the given policy.
func (r *Fig9Result) RenderPlaces(w io.Writer, policy string) error {
	idx := r.policyIndex(policy)
	if idx < 0 {
		return fmt.Errorf("experiments: policy %q not in Figure 9 run", policy)
	}
	allPlaces := r.Topo.Places()
	seen := map[int]bool{}
	for _, st := range r.Stats[idx] {
		for _, pc := range st.Places {
			seen[pc.ID] = true
		}
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Fprintf(w, "# Figure 9 (%s): task count per execution place per iteration\n", policy)
	fmt.Fprintf(w, "%-6s", "iter")
	for _, id := range ids {
		fmt.Fprintf(w, "%9s", allPlaces[id].String())
	}
	fmt.Fprintln(w)
	for k, st := range r.Stats[idx] {
		fmt.Fprintf(w, "%-6d", k)
		for _, id := range ids {
			fmt.Fprintf(w, "%9d", st.Count(id))
		}
		fmt.Fprintln(w)
	}
	return nil
}
