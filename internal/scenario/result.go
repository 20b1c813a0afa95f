package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"unsafe"

	"dynasym/internal/metrics"
	"dynasym/internal/topology"
)

// RunMetrics is the aggregated outcome of one repetition of one cell. For
// distributed scenarios the per-core and per-place views concatenate and
// merge the nodes' collectors.
type RunMetrics struct {
	// Seed is the runtime seed this repetition ran with.
	Seed uint64
	// Throughput is completed tasks per second of makespan.
	Throughput float64
	// Makespan is the virtual time of the last task completion.
	Makespan float64
	// TasksDone counts completed task executions.
	TasksDone int64
	// CoreBusy is per-core accumulated kernel work time in seconds
	// (node-major concatenation for distributed runs).
	CoreBusy []float64
	// HighHist is the distribution of high-priority tasks over places.
	HighHist []metrics.PlaceShare
	// Iters holds per-iteration statistics for iterative workloads.
	Iters []metrics.IterStat
	// Steals, FailedSteals and Dispatches sum the scheduler counters over
	// all cores (and nodes).
	Steals, FailedSteals, Dispatches int64
	// Sched carries scheduler-introspection telemetry when the run
	// executed with a probe (Spec.Probe); nil otherwise. It rides the
	// shard wire format like every other field, so remote cells report
	// too. Deliberately not part of Fingerprint: telemetry describes a
	// run, it does not define one.
	Sched *metrics.Sched `json:",omitempty"`

	digest [sha256.Size]byte // what Seal computed; zero until then
}

// SizeBytes estimates the heap a RunMetrics value holds on to — the struct
// plus its slices' elements, by arithmetic on the lengths (Sched telemetry,
// which cached cells never carry, is not counted). The service sums it into
// its cell-cache byte gauge, so it must stay allocation-free.
func (rm *RunMetrics) SizeBytes() int64 {
	n := unsafe.Sizeof(*rm) +
		uintptr(len(rm.CoreBusy))*unsafe.Sizeof(float64(0)) +
		uintptr(len(rm.HighHist))*unsafe.Sizeof(metrics.PlaceShare{}) +
		uintptr(len(rm.Iters))*unsafe.Sizeof(metrics.IterStat{})
	for i := range rm.Iters {
		n += uintptr(len(rm.Iters[i].Places)) * unsafe.Sizeof(metrics.PlaceCount{})
	}
	return int64(n)
}

// Cell is one (policy, point) position of the grid with all repetitions.
type Cell struct {
	Policy string
	Point  Point
	Runs   []RunMetrics
}

// Run returns the first repetition — the canonical single-run view that
// reproduces a standalone execution with the spec's base seed.
func (c *Cell) Run() RunMetrics { return c.Runs[0] }

// MeanThroughput averages throughput over repetitions.
func (c *Cell) MeanThroughput() float64 {
	sum := 0.0
	for _, r := range c.Runs {
		sum += r.Throughput
	}
	return sum / float64(len(c.Runs))
}

// Sched merges the repetitions' scheduler telemetry, or nil when the cell
// ran without probes.
func (c *Cell) Sched() *metrics.Sched {
	var out *metrics.Sched
	for _, r := range c.Runs {
		if r.Sched == nil {
			continue
		}
		if out == nil {
			out = r.Sched.Clone()
		} else {
			out.Merge(r.Sched)
		}
	}
	return out
}

// Result is the full grid of a scenario run.
type Result struct {
	// Name echoes the spec.
	Name string
	// Topo is the platform the cells ran on (one node's platform for
	// distributed scenarios).
	Topo *topology.Platform
	// Policies and Points give the grid axes in spec order.
	Policies []string
	Points   []Point
	// Cells is indexed [policy][point].
	Cells [][]Cell
}

// Cell returns the cell for a policy name and point label, or nil.
func (r *Result) Cell(policy, label string) *Cell {
	for pi, p := range r.Policies {
		if p != policy {
			continue
		}
		for xi, pt := range r.Points {
			if pt.Label == label {
				return &r.Cells[pi][xi]
			}
		}
	}
	return nil
}

// Throughputs returns the mean-throughput grid indexed [policy][point].
func (r *Result) Throughputs() [][]float64 {
	out := make([][]float64, len(r.Policies))
	for pi := range r.Cells {
		out[pi] = make([]float64, len(r.Points))
		for xi := range r.Cells[pi] {
			out[pi][xi] = r.Cells[pi][xi].MeanThroughput()
		}
	}
	return out
}

// WriteTable renders the mean-throughput grid as an aligned text table.
func (r *Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", r.Name)
	fmt.Fprintf(w, "%-12s", "policy")
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%12s", pt.Label)
	}
	fmt.Fprintln(w)
	for pi, p := range r.Policies {
		fmt.Fprintf(w, "%-12s", p)
		for xi := range r.Points {
			fmt.Fprintf(w, "%12.0f", r.Cells[pi][xi].MeanThroughput())
		}
		fmt.Fprintln(w)
	}
}

// Fingerprint is the result's identity: 64 hex digits, equal for two results
// exactly when every metric of every repetition is bit-equal. It is the sha256
// of the name, the topology string and then, in grid order, each cell's
// policy, point label, repetition count and run digests (RunMetrics.Seal),
// every string and count length-prefixed. A run nobody sealed — a Result built
// by hand — is digested on the spot, so the value never depends on who sealed.
// Sched stays out: telemetry describes a run, it does not define one.
func (r *Result) Fingerprint() string {
	topo := topoString(r.Topo)
	n := 16 + len(r.Name) + len(topo)
	for pi, p := range r.Policies {
		for xi, pt := range r.Points {
			n += 24 + len(p) + len(pt.Label) + sha256.Size*len(r.Cells[pi][xi].Runs)
		}
	}
	b := appendStr(appendStr(make([]byte, 0, n), r.Name), topo)
	for pi, p := range r.Policies {
		for xi, pt := range r.Points {
			runs := r.Cells[pi][xi].Runs
			b = appendU64(appendStr(appendStr(b, p), pt.Label), uint64(len(runs)))
			for _, run := range runs {
				if run.digest == ([sha256.Size]byte{}) {
					run.Seal() // the loop's copy, not the caller's value
				}
				b = append(b, run.digest[:]...)
			}
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Seal stores the run's digest in the value, to travel with it through caches
// and merges: sha256 over a fixed little-endian encoding of exactly the fields
// FingerprintText prints — Seed, Throughput, Makespan, TasksDone, Steals,
// FailedSteals, Dispatches, then CoreBusy, HighHist (leader, width, count,
// frac) and Iters (iter, tasks, start, end, place pairs as stored: ID-sorted),
// slices behind their length, floats as IEEE-754 bits — never Sched. Call it
// once the metrics are final; a write after it needs another Seal. The digest
// is never encoded — whoever decodes a value seals it again — so it changes no
// wire format and no cache key.
func (rm *RunMetrics) Seal() { rm.sealInto(nil) }

// sealInto is Seal on the caller's scratch, which it returns (grown, if it had
// to be) for the next cell: a warm worker seals without allocating.
func (rm *RunMetrics) sealInto(b []byte) []byte {
	if n := int(rm.SizeBytes()); cap(b) < n {
		b = make([]byte, 0, n) // the encoding is no longer than the value
	}
	b = appendU64(b[:0], rm.Seed)
	b = appendF64(appendF64(b, rm.Throughput), rm.Makespan)
	b = appendI64(appendI64(appendI64(appendI64(b, rm.TasksDone), rm.Steals), rm.FailedSteals), rm.Dispatches)
	b = appendU64(b, uint64(len(rm.CoreBusy)))
	for _, v := range rm.CoreBusy {
		b = appendF64(b, v)
	}
	b = appendU64(b, uint64(len(rm.HighHist)))
	for _, ps := range rm.HighHist {
		b = appendI64(appendI64(b, int64(ps.Place.Leader)), int64(ps.Place.Width))
		b = appendF64(appendI64(b, ps.Count), ps.Frac)
	}
	b = appendU64(b, uint64(len(rm.Iters)))
	for i := range rm.Iters {
		st := &rm.Iters[i]
		b = appendI64(appendI64(b, int64(st.Iter)), st.Tasks)
		b = appendF64(appendF64(b, st.Start), st.End)
		b = appendU64(b, uint64(len(st.Places)))
		for _, pc := range st.Places {
			b = appendI64(appendI64(b, int64(pc.ID)), pc.N)
		}
	}
	rm.digest = sha256.Sum256(b)
	return b
}

func appendU64(b []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte   { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }
func appendStr(b []byte, s string) []byte  { return append(appendU64(b, uint64(len(s))), s...) }

// topoString names the platform; a nil one reads as fmt prints a nil Stringer.
func topoString(t *topology.Platform) string {
	if t == nil {
		return "<nil>"
	}
	return t.String()
}

// FingerprintText spells out, bit-exactly, what Fingerprint hashes: the debug
// form (GET /v1/results/{hash}/fingerprint) for when two digests differ and
// the question is where — and the engine's cross-commit contract: the golden
// literals in golden_test.go hash this text, so they move only with the
// engine's behaviour, never with the digest's encoding. strconv appends, not
// fmt: a 21-cell grid is half a megabyte of it.
func (r *Result) FingerprintText() string { return string(r.appendFingerprint(nil)) }

func (r *Result) appendFingerprint(b []byte) []byte {
	b = append(append(b, "scenario="...), r.Name...)
	b = append(append(b, " topo="...), topoString(r.Topo)...)
	b = append(b, '\n')
	for pi, p := range r.Policies {
		for xi, pt := range r.Points {
			runs := r.Cells[pi][xi].Runs
			for rep := range runs {
				run := &runs[rep]
				b = append(append(b, p...), '/')
				b = append(b, pt.Label...)
				b = appendInt(b, "/r", int64(rep))
				b = strconv.AppendUint(append(b, " seed="...), run.Seed, 10)
				b = appendBits(b, " tput=", run.Throughput)
				b = appendBits(b, " mk=", run.Makespan)
				b = appendInt(b, " tasks=", run.TasksDone)
				b = appendInt(b, " steals=", run.Steals)
				b = appendInt(b, " fsteals=", run.FailedSteals)
				b = appendInt(b, " disp=", run.Dispatches)
				b = append(b, "\n busy"...)
				for _, v := range run.CoreBusy {
					b = appendBits(b, " ", v)
				}
				b = append(b, "\n hist"...)
				for _, ps := range run.HighHist {
					b = ps.Place.AppendTo(append(b, ' '))
					b = appendInt(b, ":", ps.Count)
					b = appendBits(b, ":", ps.Frac)
				}
				b = append(b, "\n iters"...)
				for i := range run.Iters {
					st := &run.Iters[i]
					b = appendInt(b, " ", int64(st.Iter))
					b = appendInt(b, ":", st.Tasks)
					b = appendBits(b, ":", st.Start)
					b = append(appendBits(b, ":", st.End), ':')
					// Places are ID-sorted by construction (Collector.IterStats).
					sep := ""
					for _, pc := range st.Places {
						b = appendInt(b, sep, int64(pc.ID))
						b = appendInt(b, "=", pc.N)
						sep = ","
					}
				}
				b = append(b, '\n')
			}
		}
	}
	return b
}

// appendInt appends sep and v in decimal.
func appendInt(b []byte, sep string, v int64) []byte {
	return strconv.AppendInt(append(b, sep...), v, 10)
}

// appendBits appends sep and v's IEEE-754 bit pattern in lower-case hex.
func appendBits(b []byte, sep string, v float64) []byte {
	return strconv.AppendUint(append(b, sep...), math.Float64bits(v), 16)
}

// mergeHists merges per-node place histograms into one distribution,
// sorted like metrics.PlaceHistogram (count descending, then place order).
func mergeHists(hists ...[]metrics.PlaceShare) []metrics.PlaceShare {
	counts := map[topology.Place]int64{}
	var total int64
	for _, h := range hists {
		for _, ps := range h {
			counts[ps.Place] += ps.Count
			total += ps.Count
		}
	}
	out := make([]metrics.PlaceShare, 0, len(counts))
	for pl, n := range counts {
		ps := metrics.PlaceShare{Place: pl, Count: n}
		if total > 0 {
			ps.Frac = float64(n) / float64(total)
		}
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Place.Leader != out[j].Place.Leader {
			return out[i].Place.Leader < out[j].Place.Leader
		}
		return out[i].Place.Width < out[j].Place.Width
	})
	return out
}
