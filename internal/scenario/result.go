package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"dynasym/internal/metrics"
	"dynasym/internal/topology"
)

// RunMetrics is the aggregated outcome of one repetition of one cell. For
// distributed scenarios the per-core and per-place views concatenate and
// merge the nodes' completion records.
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
	// Iters holds per-iteration statistics for iterative workloads: the
	// iterations and their place counts, encoded in one pointer-free byte
	// string.
	Iters metrics.Iters
	// Steals, FailedSteals and Dispatches sum the scheduler counters over
	// all cores (and nodes).
	Steals, FailedSteals, Dispatches int64
	// Sched carries scheduler-introspection telemetry when the run
	// executed in this process with a probe (Spec.Probe, RunCellTrace);
	// nil otherwise. It never leaves the process. Deliberately not part of
	// Fingerprint: telemetry describes a run, it does not define one.
	Sched *metrics.Sched

	digest Digest // what sealInto computed; zero until then
}

// RunSummary is a run reduced to what a job's answer reads: its scalars and the
// digest sealInto took of the whole run. It holds no pointer. The detail behind
// the digest is a pure function of the cell: re-run the cell to get it back.
type RunSummary struct {
	Seed                                        uint64
	Throughput, Makespan                        float64
	TasksDone, Steals, FailedSteals, Dispatches int64
	Digest                                      Digest
}

// Summary returns the run's summary, digesting a run nobody sealed on the spot.
func (rm RunMetrics) Summary() RunSummary {
	if rm.digest == (Digest{}) {
		rm.sealInto(nil) // the copy's digest, not the caller's
	}
	return RunSummary{Seed: rm.Seed, Throughput: rm.Throughput, Makespan: rm.Makespan, TasksDone: rm.TasksDone,
		Steals: rm.Steals, FailedSteals: rm.FailedSteals, Dispatches: rm.Dispatches, Digest: rm.digest}
}

// Digest is a run's sealed sha256. Its text form is 64 hex digits.
type Digest [sha256.Size]byte

func (d Digest) MarshalText() ([]byte, error) { return hex.AppendEncode(nil, d[:]), nil }

func (d *Digest) UnmarshalText(b []byte) error {
	if len(b) != hex.EncodedLen(len(d)) {
		return fmt.Errorf("digest %.80q is not %d hex digits", b, hex.EncodedLen(len(d)))
	}
	_, err := hex.Decode(d[:], b)
	return err
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
	return meanGrid(len(r.Policies), len(r.Points), r.reps, func(pi, xi, rep int) float64 { return r.Cells[pi][xi].Runs[rep].Throughput })
}

// meanGrid is the one mean behind Result.Throughputs and Summary.Throughputs:
// reps counts a grid position's runs, tput gives one's, summed in run order.
func meanGrid(np, nx int, reps func(pi, xi int) int, tput func(pi, xi, rep int) float64) [][]float64 {
	out := make([][]float64, np)
	grid := make([]float64, np*nx)
	for pi := range out {
		out[pi] = grid[pi*nx : (pi+1)*nx : (pi+1)*nx]
		for xi := range out[pi] {
			k := reps(pi, xi)
			for rep := range k {
				out[pi][xi] += tput(pi, xi, rep)
			}
			out[pi][xi] /= float64(k)
		}
	}
	return out
}

// reps counts the runs at a grid position.
func (r *Result) reps(pi, xi int) int { return len(r.Cells[pi][xi].Runs) }

// WriteTable renders the mean-throughput grid as an aligned text table.
func (r *Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", r.Name)
	fmt.Fprintf(w, "%-12s", "policy")
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%12s", pt.Label)
	}
	fmt.Fprintln(w)
	for pi, row := range r.Throughputs() {
		fmt.Fprintf(w, "%-12s", r.Policies[pi])
		for _, tput := range row {
			fmt.Fprintf(w, "%12.0f", tput)
		}
		fmt.Fprintln(w)
	}
}

// Fingerprint is the result's identity: 64 hex digits, equal for two results
// exactly when every metric of every repetition is bit-equal. It is the sha256
// of the name, the topology string and then, in grid order, each cell's
// policy, point label, repetition count and run digests (RunMetrics.Summary),
// every string and count length-prefixed. Sched stays out: telemetry
// describes a run, it does not define one.
func (r *Result) Fingerprint() string {
	return fingerprint(r.Name, r.Topo, r.Policies, r.Points, r.reps, func(pi, xi, rep int) Digest { return r.Cells[pi][xi].Runs[rep].Summary().Digest })
}

// fingerprint is the one hash behind Result.Fingerprint and
// Summary.Fingerprint: reps counts a grid position's runs, digest gives one.
func fingerprint(name string, platform *topology.Platform, policies []string, points []Point,
	reps func(pi, xi int) int, digest func(pi, xi, rep int) Digest) string {
	topo := topoString(platform)
	n := 16 + len(name) + len(topo)
	for pi, p := range policies {
		for xi, pt := range points {
			n += 24 + len(p) + len(pt.Label) + sha256.Size*reps(pi, xi)
		}
	}
	var stack [fingerprintStackBytes]byte
	b := stack[:0]
	if n > len(stack) {
		b = make([]byte, 0, n)
	}
	b = appendStr(appendStr(b, name), topo)
	for pi, p := range policies {
		for xi, pt := range points {
			k := reps(pi, xi)
			b = appendU64(appendStr(appendStr(b, p), pt.Label), uint64(k))
			for rep := range k {
				d := digest(pi, xi, rep)
				b = append(b, d[:]...)
			}
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Summary is a Result reduced to its runs' summaries (Plan.Summarize), Reps
// per grid position in plan order: its Fingerprint and Throughputs are the
// Result's, bit for bit.
type Summary struct {
	Name     string
	Topo     *topology.Platform
	Policies []string
	Points   []Point
	Reps     int
	Runs     []RunSummary
}

// Fingerprint is Result.Fingerprint, from the summaries' digests.
func (s *Summary) Fingerprint() string {
	return fingerprint(s.Name, s.Topo, s.Policies, s.Points, s.reps, func(pi, xi, rep int) Digest { return s.at(pi, xi, rep).Digest })
}

// Throughputs is Result.Throughputs, from the summaries' throughputs.
func (s *Summary) Throughputs() [][]float64 {
	return meanGrid(len(s.Policies), len(s.Points), s.reps, func(pi, xi, rep int) float64 { return s.at(pi, xi, rep).Throughput })
}

func (s *Summary) reps(int, int) int { return s.Reps }

// at is the summary of one run by grid position and repetition.
func (s *Summary) at(pi, xi, rep int) *RunSummary { return &s.Runs[(pi*len(s.Points)+xi)*s.Reps+rep] }

// fingerprintStackBytes is the largest Fingerprint input hashed from the
// stack: a 21-cell one-rep grid on a preset platform needs about 1.5 KB.
const fingerprintStackBytes = 2048

// sealInto stores the run's digest in the value, to travel with it through
// caches and merges (RunSummary): sha256 over a fixed little-endian encoding of
// exactly the fields FingerprintText prints — Seed, Throughput, Makespan,
// TasksDone, Steals, FailedSteals, Dispatches, then CoreBusy, HighHist
// (leader, width, count, frac) and Iters (iter, tasks, start, end, place pairs
// as stored: ID-sorted), slices behind their length, every integer a 64-bit
// word and floats as IEEE-754 bits — never Sched. A write after it needs
// another seal. It encodes into b, which it returns (grown to the encoding's
// exact length, if it had to be) for the next cell: a warm worker seals
// without allocating.
func (rm *RunMetrics) sealInto(b []byte) []byte {
	iters, pairs := rm.Iters.Counts()
	// Seven scalars and three slice lengths, then per element: a float per
	// core, four words per histogram entry, five per iteration (four fields
	// and its pair count) and two per pair.
	n := 8 * (10 + len(rm.CoreBusy) + 4*len(rm.HighHist) + 5*iters + 2*pairs)
	if cap(b) < n {
		b = make([]byte, 0, n)
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
	b = appendU64(b, uint64(iters))
	c := rm.Iters.Cursor()
	for c.Next() {
		st := c.Stat()
		b = appendI64(appendI64(b, int64(st.Iter)), st.Tasks)
		b = appendF64(appendF64(b, st.Start), st.End)
		b = appendU64(b, uint64(c.Pairs()))
		for c.Pairs() > 0 {
			for _, pc := range c.Places() {
				b = appendI64(appendI64(b, int64(pc.ID)), int64(pc.N))
			}
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
				c := run.Iters.Cursor()
				for c.Next() {
					st := c.Stat()
					b = appendInt(b, " ", int64(st.Iter))
					b = appendInt(b, ":", st.Tasks)
					b = appendBits(b, ":", st.Start)
					b = append(appendBits(b, ":", st.End), ':')
					// Places are ID-sorted by construction (Record.IterStats).
					sep := ""
					for c.Pairs() > 0 {
						for _, pc := range c.Places() {
							b = appendInt(b, sep, int64(pc.ID))
							b = appendInt(b, "=", int64(pc.N))
							sep = ","
						}
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
// sorted like metrics.PlaceHistogram.
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
	slices.SortFunc(out, metrics.ComparePlaceShares)
	return out
}
