package experiments

import (
	"fmt"
	"io"
	"slices"

	"dynasym/internal/core"
	"dynasym/internal/metrics"
	"dynasym/internal/scenario"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

// The K-means experiment (Figure 9) runs RWS, DAM-C and DAM-P on the
// 16-core dual-socket Haswell node for fig9Iters iterations, with a
// co-runner occupying socket 0 during iterations [fig9From, fig9To) — the
// paper's window.
const (
	fig9Iters = 100
	fig9From  = 20
	fig9To    = 70
)

// Fig9Result holds per-iteration statistics per policy. The interference
// window is defined in absolute virtual time (calibrated so it opens at
// iteration fig9From under uninterfered pacing); because interference slows
// iterations down, the set of affected iteration indices differs per
// policy — inWindow reports the actual overlap.
type Fig9Result struct {
	Policies []string
	Stats    []metrics.Iters
	Topo     *topology.Platform
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

// fig9 runs the experiment. The interference window is positioned in time
// by first calibrating the uninterfered iteration duration with DAM-C.
func fig9(scale float64, seed uint64) *Fig9Result {
	kmCfg := workloads.KMeansConfig{MaxIters: fig9Iters}.Defaults()
	kmCfg.N = scenario.ScaleTasks(kmCfg.N, scale, 1<<13)

	// Calibration run: DAM-C, no interference.
	calib := scenario.MustRun(kmeansSpec("fig9-calibration", kmCfg, []core.Policy{core.DAMC()}, seed, nil))
	total, n := 0.0, 0
	c := calib.Cells[0][0].Run().Iters.Cursor()
	for ; c.Next(); n++ {
		st := c.Stat()
		total += st.End - st.Start
	}
	avgIter := total / float64(n)

	res := &Fig9Result{
		WindowTime: [2]float64{fig9From * avgIter, fig9To * avgIter},
		AvgIter:    avgIter,
	}
	// Main runs: the co-runner time-shares all of socket 0 (cluster 0)
	// equally during the calibrated window.
	pols := []core.Policy{core.RWS(), core.DAMC(), core.DAMP()}
	sres := scenario.MustRun(kmeansSpec("fig9", kmCfg, pols, seed, []scenario.Disturbance{{
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

// inWindow reports whether iteration stat overlaps the interference
// interval.
func (r *Fig9Result) inWindow(st metrics.IterStat) bool {
	return st.End > r.WindowTime[0] && st.Start < r.WindowTime[1]
}

// inWindowSettled reports whether the iteration lies fully inside the
// interference interval, past the adaptation transient (the PTT needs a few
// observations before placements migrate, so the first post-onset
// iterations are excluded when comparing steady-state behaviour).
func (r *Fig9Result) inWindowSettled(st metrics.IterStat) bool {
	return st.Start >= r.WindowTime[0]+float64(4*r.AvgIter) && st.End <= r.WindowTime[1]
}

// MeanSettledIterTime returns a policy's mean iteration wall time over
// iterations fully inside the interference window, past the adaptation
// transient.
func (r *Fig9Result) MeanSettledIterTime(policy string) float64 {
	i := slices.Index(r.Policies, policy)
	if i < 0 {
		return 0
	}
	sum, n := 0.0, 0
	c := r.Stats[i].Cursor()
	for c.Next() {
		if st := c.Stat(); r.inWindowSettled(st) {
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
	i := slices.Index(r.Policies, policy)
	if i < 0 {
		return 0
	}
	places := r.Topo.Places()
	var wide, total int64
	c := r.Stats[i].Cursor()
	for c.Next() {
		if !r.inWindow(c.Stat()) {
			continue
		}
		for c.Pairs() > 0 {
			for _, pc := range c.Places() {
				total += int64(pc.N)
				if places[pc.ID].Width > 1 {
					wide += int64(pc.N)
				}
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
		fig9From, fig9To)
	fmt.Fprintf(w, "%-6s", "iter")
	for _, p := range r.Policies {
		fmt.Fprintf(w, "%10s", p)
	}
	fmt.Fprintln(w, "  (* = interfered, first policy's timeline)")
	// One cursor per policy, advanced a row at a time.
	n := 0
	cursors := make([]metrics.IterCursor, len(r.Stats))
	for i, it := range r.Stats {
		iters, _ := it.Counts()
		n = max(n, iters)
		cursors[i] = it.Cursor()
	}
	for k := 0; k < n; k++ {
		fmt.Fprintf(w, "%-6d", k)
		interfered := false
		for i := range r.Policies {
			if c := &cursors[i]; c.Next() {
				st := c.Stat()
				fmt.Fprintf(w, "%10.2f", (st.End-st.Start)*1e3)
				if i == 0 {
					interfered = r.inWindow(st)
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

// placesRenderer renders Figure 9b/c from a fig9 result, for a policy of
// fig9's fixed set.
type placesRenderer struct {
	res    *Fig9Result
	policy string
}

func (p placesRenderer) Render(w io.Writer) { _ = p.res.renderPlaces(w, p.policy) }

// renderPlaces prints Figure 9b/c: per-iteration task counts per execution
// place for the given policy.
func (r *Fig9Result) renderPlaces(w io.Writer, policy string) error {
	idx := slices.Index(r.Policies, policy)
	if idx < 0 {
		return fmt.Errorf("experiments: policy %q not in Figure 9 run", policy)
	}
	allPlaces := r.Topo.Places()
	it := r.Stats[idx]
	var ids []int32 // every place the policy used, ascending
	c := it.Cursor()
	for c.Next() {
		for c.Pairs() > 0 {
			for _, pc := range c.Places() {
				ids = append(ids, pc.ID)
			}
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	fmt.Fprintf(w, "# Figure 9 (%s): task count per execution place per iteration\n", policy)
	fmt.Fprintf(w, "%-6s", "iter")
	for _, id := range ids {
		fmt.Fprintf(w, "%9s", allPlaces[id].String())
	}
	fmt.Fprintln(w)
	c = it.Cursor()
	var pairs []metrics.PlaceCount
	for k := 0; c.Next(); k++ {
		fmt.Fprintf(w, "%-6d", k)
		pairs = pairs[:0]
		for c.Pairs() > 0 {
			pairs = append(pairs, c.Places()...)
		}
		// Both lists ascend by ID, and ids holds every ID the pairs name.
		row := pairs
		for _, id := range ids {
			var n int32
			if len(row) > 0 && row[0].ID == id {
				n, row = row[0].N, row[1:]
			}
			fmt.Fprintf(w, "%9d", n)
		}
		fmt.Fprintln(w)
	}
	return nil
}
