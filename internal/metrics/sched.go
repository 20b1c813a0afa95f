package metrics

// Scheduler-introspection telemetry. A simrt.Probe records a run and, at
// its completion, derives a Sched aggregate from that record; the scenario
// layer copies the aggregate into the cell's RunMetrics, in process only
// (it never crosses the shard wire), and Merge folds per-run aggregates
// into per-policy views. Every field is a sum or a maximum so merging
// stays exact; the derived rates (mean queue depth, PTT error) are methods
// over the sums.

import (
	"fmt"
	"io"
	"sort"
)

// StealEdge is one cell of the steal matrix: how many tasks a thief core
// took from a victim core's WSQ, split by task priority.
type StealEdge struct {
	Victim, Thief int
	Low, High     int64
}

// Sched is the merged scheduler-introspection telemetry of one or more
// runs: the per-core virtual-time breakdown, the steal matrix, queue-depth
// integrals, and the PTT prediction-vs-actual error sums.
type Sched struct {
	// Busy, Dispatch, Steal, Idle break each core's virtual time into
	// kernel work, dispatch windows, successful steal windows, and the
	// residual, in seconds. Idle is clamped at zero per run.
	Busy, Dispatch, Steal, Idle []float64
	// StealMatrix lists the non-zero victim → thief edges, victim-major.
	StealMatrix []StealEdge
	// Span sums the makespans of the merged runs — the denominator for
	// the time-weighted queue averages.
	Span float64
	// QueueSamples is the length of the run's queue record, one sample per
	// queue-state transition; ReadySec and CommittedSec integrate WSQ depth
	// (ready tasks) and AQ depth (committed assembly entries) over time.
	QueueSamples int64
	ReadySec     float64
	CommittedSec float64
	MaxReady     int
	MaxCommitted int
	// PTTSamples counts completions whose place had a prior PTT estimate;
	// PTTErrSum accumulates |predicted−actual|/actual over them. The Tail
	// pair covers only the last quarter of each run's series, so a
	// converging table shows TailRelErr ≪ MeanRelErr.
	PTTSamples     int64
	PTTErrSum      float64
	PTTTailSamples int64
	PTTTailErrSum  float64
}

// totalSteals sums the steal matrix (both priorities).
func (s *Sched) totalSteals() int64 {
	var n int64
	for _, e := range s.StealMatrix {
		n += e.Low + e.High
	}
	return n
}

// meanReady is the time-weighted mean number of ready tasks.
func (s *Sched) meanReady() float64 {
	if s.Span <= 0 {
		return 0
	}
	return s.ReadySec / s.Span
}

// meanCommitted is the time-weighted mean number of committed AQ entries.
func (s *Sched) meanCommitted() float64 {
	if s.Span <= 0 {
		return 0
	}
	return s.CommittedSec / s.Span
}

// pttMeanRelErr is the mean relative PTT prediction error over all
// observed completions.
func (s *Sched) pttMeanRelErr() float64 {
	if s.PTTSamples == 0 {
		return 0
	}
	return s.PTTErrSum / float64(s.PTTSamples)
}

// pttTailRelErr is the mean relative PTT prediction error over the last
// quarter of each merged run's completions.
func (s *Sched) pttTailRelErr() float64 {
	if s.PTTTailSamples == 0 {
		return 0
	}
	return s.PTTTailErrSum / float64(s.PTTTailSamples)
}

// Merge folds another aggregate into s. Per-core slices grow to the larger
// core count; the steal matrices merge edge-wise and stay victim-major.
func (s *Sched) Merge(o *Sched) {
	if o == nil {
		return
	}
	s.Busy = addInto(s.Busy, o.Busy)
	s.Dispatch = addInto(s.Dispatch, o.Dispatch)
	s.Steal = addInto(s.Steal, o.Steal)
	s.Idle = addInto(s.Idle, o.Idle)
	if len(o.StealMatrix) > 0 {
		type key struct{ v, t int }
		idx := make(map[key]int, len(s.StealMatrix)+len(o.StealMatrix))
		for i, e := range s.StealMatrix {
			idx[key{e.Victim, e.Thief}] = i
		}
		for _, e := range o.StealMatrix {
			if i, ok := idx[key{e.Victim, e.Thief}]; ok {
				s.StealMatrix[i].Low += e.Low
				s.StealMatrix[i].High += e.High
			} else {
				idx[key{e.Victim, e.Thief}] = len(s.StealMatrix)
				s.StealMatrix = append(s.StealMatrix, e)
			}
		}
		sort.Slice(s.StealMatrix, func(i, j int) bool {
			a, b := s.StealMatrix[i], s.StealMatrix[j]
			if a.Victim != b.Victim {
				return a.Victim < b.Victim
			}
			return a.Thief < b.Thief
		})
	}
	s.Span += o.Span
	s.QueueSamples += o.QueueSamples
	s.ReadySec += o.ReadySec
	s.CommittedSec += o.CommittedSec
	if o.MaxReady > s.MaxReady {
		s.MaxReady = o.MaxReady
	}
	if o.MaxCommitted > s.MaxCommitted {
		s.MaxCommitted = o.MaxCommitted
	}
	s.PTTSamples += o.PTTSamples
	s.PTTErrSum += o.PTTErrSum
	s.PTTTailSamples += o.PTTTailSamples
	s.PTTTailErrSum += o.PTTTailErrSum
}

// addInto sums b into a element-wise, growing a as needed.
func addInto(a, b []float64) []float64 {
	if len(b) > len(a) {
		grown := make([]float64, len(b))
		copy(grown, a)
		a = grown
	}
	for i, v := range b {
		a[i] += v
	}
	return a
}

// maxMatrixRows bounds the steal-matrix listing in WriteReport; fleets of
// 64+ cores have thousands of possible edges and the report is for humans.
const maxMatrixRows = 24

// WriteReport renders the aggregate as a human-readable schedule report:
// per-core utilization and time breakdown, the heaviest steal edges, queue
// pressure, and PTT convergence.
func (s *Sched) WriteReport(w io.Writer) {
	total := s.Span
	fmt.Fprintf(w, "per-core time breakdown (virtual time, %d cores, span %.6fs):\n", len(s.Busy), s.Span)
	fmt.Fprintf(w, "  %4s  %10s  %6s  %10s  %10s  %10s\n", "core", "busy", "util", "dispatch", "steal", "idle")
	for i := range s.Busy { // Merge keeps the four per-core slices one length
		util := 0.0
		if total > 0 {
			util = s.Busy[i] / total
		}
		fmt.Fprintf(w, "  %4d  %10.6f  %5.1f%%  %10.6f  %10.6f  %10.6f\n",
			i, s.Busy[i], util*100, s.Dispatch[i], s.Steal[i], s.Idle[i])
	}
	fmt.Fprintf(w, "steal matrix (victim -> thief, %d steals", s.totalSteals())
	if len(s.StealMatrix) == 0 {
		fmt.Fprintf(w, "): none\n")
	} else {
		fmt.Fprintf(w, ", %d edges):\n", len(s.StealMatrix))
		edges := append([]StealEdge(nil), s.StealMatrix...)
		sort.Slice(edges, func(i, j int) bool {
			ni, nj := edges[i].Low+edges[i].High, edges[j].Low+edges[j].High
			if ni != nj {
				return ni > nj
			}
			if edges[i].Victim != edges[j].Victim {
				return edges[i].Victim < edges[j].Victim
			}
			return edges[i].Thief < edges[j].Thief
		})
		shown := edges
		if len(shown) > maxMatrixRows {
			shown = shown[:maxMatrixRows]
		}
		for _, e := range shown {
			fmt.Fprintf(w, "  C%-3d -> C%-3d  %6d low  %6d high\n", e.Victim, e.Thief, e.Low, e.High)
		}
		if len(edges) > len(shown) {
			fmt.Fprintf(w, "  (+%d more edges)\n", len(edges)-len(shown))
		}
	}
	fmt.Fprintf(w, "queues: mean ready %.2f (max %d), mean committed %.2f (max %d), %d transitions\n",
		s.meanReady(), s.MaxReady, s.meanCommitted(), s.MaxCommitted, s.QueueSamples)
	if s.PTTSamples > 0 {
		fmt.Fprintf(w, "ptt: %d predictions, mean rel err %.3f, tail rel err %.3f (last quarter)\n",
			s.PTTSamples, s.pttMeanRelErr(), s.pttTailRelErr())
	} else {
		fmt.Fprintf(w, "ptt: no predictions (policy does not use the PTT, or no repeat observations)\n")
	}
}
