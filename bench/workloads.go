package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"dynasym/internal/core"
	"dynasym/internal/dagio"
	"dynasym/internal/scenario"
)

// shape holds the daemon cache capacities each workload's regime is built
// around. Real runs use asymd's defaults; the in-process quick mode shrinks
// both so the same regimes (job LRU thrashing, cell LRU evicting) are
// reached after a handful of jobs.
type shape struct {
	jobCache  int // finished-job LRU entries (asymd -cache)
	cellCache int // cell-result LRU entries (asymd -cellcache)
	// gridScale is the scale the synthetic families are submitted at.
	gridScale float64
}

var (
	defaultShape = shape{jobCache: 128, cellCache: 4096, gridScale: 0.05}
	quickShape   = shape{jobCache: 4, cellCache: 48, gridScale: 0.01}
)

// job is one generated request with what the service must answer.
type job struct {
	// body is the POST /v1/jobs document.
	body []byte
	// spec is the scenario the body asks for: the reference fingerprint
	// and the traced ledger both start from it.
	spec scenario.Spec

	// The regime this job must land in.
	wantCode            int // 202 new job, 200 absorbed by a finished one
	cells, hits, misses int64

	// verify marks the job for a fingerprint comparison; refKey, when
	// non-empty, is a stable name under which its reference can be kept.
	verify bool
	refKey string
}

// workload is one named job stream and the topology it runs against.
type workload struct {
	name    string
	clients int
	// fleet runs a coordinator with one peer worker instead of one node.
	fleet bool
	// setups is how many fresh instances an untraced run sets up one after
	// the other, measuring an equal share of the timed section on each:
	// setup_s is the median of that many set-ups. The dearer the warm-up, the
	// fewer a run can afford.
	setups int
	// warmup is how many jobs bring the caches to steady state; the
	// stream's indices [0, warmup) run before the stop-watch, on one
	// client. The timed section continues from index warmup.
	warmup int
	// window is the fixed job count of a traced run's timed section at
	// -seconds 10 (it scales with -seconds).
	window int
	// ledgerWarm is how many of the last warm-up jobs the in-process
	// ledger must replay to be in the same cache regime as the daemon.
	ledgerWarm int
	// shareCells lets reference fingerprints reuse simulated cells across
	// jobs (the stream resubmits one grid under many names).
	shareCells bool
	// gen returns job i of the stream: a pure function of (-seed, i).
	gen func(i int) job
}

// paperCLI is the one workload that is not a job stream: sequential
// asymbench child processes. See cli.go.
const paperCLI = "paper-cli"

// workloadNames lists every workload in the order a full set runs them.
var workloadNames = []string{"cold-grid", "warm-cell", "warm-job", "overlap-fleet", paperCLI}

// familyJob builds a {"family","scale","seed"} submission.
func familyJob(name string, scale float64, seed uint64) job {
	f, ok := scenario.Lookup(name)
	if !ok {
		panic("bench: scenario family " + name + " is not registered")
	}
	spec := f.Spec(scale)
	spec.Seed = seed
	body, err := json.Marshal(struct {
		Family string  `json:"family"`
		Scale  float64 `json:"scale"`
		Seed   uint64  `json:"seed"`
	}{name, scale, seed})
	if err != nil {
		panic(err)
	}
	cells := int64(len(spec.Policies) * max(len(spec.Points), 1) * max(spec.Reps, 1))
	return job{body: body, spec: spec, wantCode: http.StatusAccepted, cells: cells, misses: cells}
}

// specJob builds a {"spec": ...} submission carrying the canonical spec.
func specJob(spec scenario.Spec) job {
	canon, err := spec.CanonicalJSON()
	if err != nil {
		panic(fmt.Sprintf("bench: generated spec %q does not encode: %v", spec.Name, err))
	}
	body, err := json.Marshal(struct {
		Spec json.RawMessage `json:"spec"`
	}{canon})
	if err != nil {
		panic(err)
	}
	cells := int64(len(spec.Policies) * max(len(spec.Points), 1) * max(spec.Reps, 1))
	return job{body: body, spec: spec, wantCode: http.StatusAccepted, cells: cells, misses: cells}
}

// sampled is the seeded 1-in-10 choice of jobs whose fingerprint is
// checked on the workloads where every job simulates new cells.
func sampled(seed uint64, i int) bool {
	x := seed*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x%10 == 0
}

// seedBase spreads -seed values apart so that no two benchmark seeds share
// a scenario seed (and therefore a cell) anywhere in their streams.
func seedBase(seed uint64) uint64 { return seed << 32 }

// newWorkload builds the named HTTP workload for a -seed.
func newWorkload(name string, seed uint64, sh shape) (*workload, error) {
	switch name {
	case "cold-grid":
		// Every job is a fresh seed of one 8-cell grid: nothing is ever
		// cached, the simulator does the work. Warm-up fills the cell LRU
		// until it evicts, so the daemon's heap has stopped growing.
		return &workload{
			name: name, clients: 1, setups: 1,
			warmup: sh.cellCache/8 + 8, window: 400,
			gen: func(i int) job {
				j := familyJob("scaleout-32", sh.gridScale, seedBase(seed)+1+uint64(i))
				j.verify = sampled(seed, i)
				return j
			},
		}, nil

	case "warm-cell":
		// One grid under more rotating names than the job LRU holds:
		// every submission is a new job whose every cell is cached.
		names := sh.jobCache * 3 / 2
		f, _ := scenario.Lookup("burst-sweep")
		base := f.Spec(sh.gridScale)
		base.Seed = seedBase(seed) + 7
		return &workload{
			name: name, clients: 1, setups: 2,
			warmup: names, window: 300, ledgerWarm: names, shareCells: true,
			gen: func(i int) job {
				spec := base
				spec.Name = fmt.Sprintf("wc-%d-%03d", seed, i%names)
				j := specJob(spec)
				j.verify, j.refKey = true, spec.Name
				if i > 0 {
					j.hits, j.misses = j.cells, 0
				}
				return j
			},
		}, nil

	case "warm-job":
		// A fixed set of finished jobs, fewer than the job LRU holds,
		// resubmitted round-robin by two clients: no plan, no cells.
		families := []struct {
			name  string
			scale float64
		}{{"burst-sweep", sh.gridScale}, {"scaleout-32", sh.gridScale}, {"cholesky-sweep", 1}}
		set := min(8, sh.jobCache/4) * len(families)
		return &workload{
			name: name, clients: 2, setups: 3,
			warmup: set, window: 2400, ledgerWarm: set,
			gen: func(i int) job {
				k := i % set
				f := families[k%len(families)]
				j := familyJob(f.name, f.scale, seedBase(seed)+1000+uint64(k/len(families)))
				j.verify, j.refKey = true, fmt.Sprintf("wj-%d", k)
				if i >= set {
					j.wantCode = http.StatusOK
				}
				return j
			},
		}, nil

	case "overlap-fleet":
		// Three jobs in four slide a 3-tile Cholesky window one tile per
		// job (14 cells read from the cache, 7 written; the scenario seed
		// advances every 10 such jobs, and an epoch's first job misses all
		// 21, which is two shards: one local, one on the peer). Every
		// fourth job carries an inline seeded random graph of ~300 nodes
		// (21 cells, all new, again two shards, so the graph also crosses
		// the shard wire).
		f, _ := scenario.Lookup("cholesky-sweep")
		chol := f.Spec(1)
		return &workload{
			name: name, clients: 1, fleet: true, setups: 2,
			// A multiple of 40 keeps the timed section starting at the
			// first job of an epoch.
			warmup: (sh.cellCache*600/4096 + 39) / 40 * 40, window: 1000,
			gen: func(i int) job {
				var j job
				if i%4 == 3 {
					g, err := dagio.GenConfig{Model: dagio.ModelRandomLayered,
						Layers: 25, Width: 12, Degree: 3, Seed: seedBase(seed) + uint64(i)}.Graph()
					if err != nil {
						panic(err)
					}
					j = specJob(scenario.Spec{
						Name:     fmt.Sprintf("of-%d-%06d-dag", seed, i),
						Platform: scenario.PlatformSpec{Preset: "tx2"},
						Workload: scenario.WorkloadSpec{Kind: scenario.DAGFile, DAG: g},
						Disturb:  []scenario.Disturbance{scenario.PaperDVFS(1)},
						Policies: core.All(),
						Points:   []scenario.Point{{Label: "a20", Alpha: 0.2}, {Label: "a50", Alpha: 0.5}, {Label: "a80", Alpha: 0.8}},
						Seed:     seedBase(seed) + uint64(i),
					})
				} else {
					c := i - i/4 // Cholesky jobs so far
					epoch, pos := c/10, c%10
					spec := chol
					spec.Name = fmt.Sprintf("of-%d-%06d-chol", seed, i)
					spec.Seed = seedBase(seed) + 500000 + uint64(epoch)
					spec.Points = nil
					for t := 6 + pos; t < 9+pos; t++ {
						spec.Points = append(spec.Points, scenario.Point{Label: fmt.Sprintf("T%d", t), Tile: t})
					}
					j = specJob(spec)
					if pos > 0 {
						j.hits, j.misses = 14, 7
					}
				}
				j.verify = sampled(seed, i)
				return j
			},
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// referee computes reference fingerprints in process, from the library:
// plan the spec, simulate its cells, merge, fingerprint — what
// scenario.Run does, with the option of keeping cells across jobs.
type referee struct {
	mu     sync.Mutex
	share  bool
	state  *scenario.CellState
	cells  map[string]scenario.RunMetrics
	prints map[string]reference
}

// reference is one expected fingerprint, with its JSON-escaped form: when a
// result document contains the escaped bytes verbatim, the comparison is a
// substring search instead of a decode of a document that can be half a
// megabyte.
type reference struct {
	print   string
	escaped []byte
}

func newReferee(shareCells bool) *referee {
	return &referee{share: shareCells, state: scenario.NewCellState(),
		cells: map[string]scenario.RunMetrics{}, prints: map[string]reference{}}
}

func (r *referee) reference(j job) (reference, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ref, ok := r.prints[j.refKey]; ok && j.refKey != "" {
		return ref, nil
	}
	plan, err := scenario.NewPlan(j.spec)
	if err != nil {
		return reference{}, err
	}
	results := make(map[string]scenario.RunMetrics, len(plan.Cells))
	for _, c := range plan.Cells {
		rm, ok := r.cells[c.Hash]
		if !ok {
			if rm, err = plan.RunCellState(r.state, c); err != nil {
				return reference{}, err
			}
			if r.share {
				r.cells[c.Hash] = rm
			}
		}
		results[c.Hash] = rm
	}
	res, err := scenario.Merge(plan, results)
	if err != nil {
		return reference{}, err
	}
	ref := reference{print: res.Fingerprint()}
	if ref.escaped, err = json.Marshal(ref.print); err != nil {
		return reference{}, err
	}
	if j.refKey != "" {
		r.prints[j.refKey] = ref
	}
	return ref, nil
}

// check holds one finished job against its expected regime and, when the
// job is marked for it, against the reference fingerprint. Fingerprints are
// compared as opaque strings.
func (r *referee) check(j job, out jobOutcome) error {
	if out.err != nil {
		return out.err
	}
	st := out.status
	if out.postCode != j.wantCode {
		return fmt.Errorf("job %.12s: POST answered %d, want %d", st.ID, out.postCode, j.wantCode)
	}
	if st.CellsTotal != j.cells || st.CellHits != j.hits || st.CellMisses != j.misses {
		return fmt.Errorf("job %.12s (%s): %d cells, %d hits, %d misses; want %d, %d, %d",
			st.ID, j.spec.Name, st.CellsTotal, st.CellHits, st.CellMisses, j.cells, j.hits, j.misses)
	}
	if !j.verify {
		return nil
	}
	ref, err := r.reference(j)
	if err != nil {
		return fmt.Errorf("reference for %s: %w", j.spec.Name, err)
	}
	if bytes.Contains(out.result, ref.escaped) {
		return nil
	}
	got, err := fingerprintOf(out.result)
	if err != nil {
		return fmt.Errorf("job %.12s: %w", st.ID, err)
	}
	if got != ref.print {
		return fmt.Errorf("job %.12s (%s): fingerprint differs from the in-process reference", st.ID, j.spec.Name)
	}
	return nil
}
