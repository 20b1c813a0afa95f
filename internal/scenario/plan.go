package scenario

// Plan / RunCellState / Assemble split Run's monolithic grid loop into
// first-class schedulable units. A Plan enumerates every (policy × point ×
// repetition) cell of a validated spec in Run's execution order, which is
// grid order; RunCellState executes one cell as a pure function of the plan
// and the cell's coordinates; Assemble slices the cells' metrics, one array
// in plan order, into a Result that is bit-identical to what a monolithic
// Run of the same spec produces. Merge is Assemble for metrics keyed by cell
// hash.
//
// Each CellJob carries a canonical hash — the cell-granular cache key used
// by internal/service. The hash covers the spec's cell-invariant fields
// (platform, workload, disturbances, alpha, interconnect; see cellBase in
// canonical.go) plus the cell's own policy name, point parameters and
// derived seed. It deliberately excludes the spec's name, its grid axes and
// the point label: none of them change the cell's metrics, so two
// overlapping specs — say, a sweep and the same sweep with one extra point —
// share the hashes of their common cells and a cell cache can serve the
// overlap without re-simulating.

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"strconv"
	"sync"

	"dynasym/internal/machine"
	"dynasym/internal/simrt"
	"dynasym/internal/topology"
)

// CellJob identifies one cell of a plan's grid: indexes into the plan
// spec's Policies/Points axes, the repetition number, the derived runtime
// seed, and the canonical cell hash.
type CellJob struct {
	// Policy and Point index Plan.Spec.Policies and Plan.Spec.Points.
	Policy, Point int
	// Rep is the repetition number in [0, Spec.Reps).
	Rep int
	// Seed is the runtime seed this cell runs with
	// (Spec.Seed + Rep*repSeedStride).
	Seed uint64
	// Hash is the canonical per-cell cache key.
	Hash string
}

// Plan is a spec expanded into its cell shards.
type Plan struct {
	// Spec is the normalized (withDefaults) and validated spec.
	Spec Spec
	// Hash is the spec's canonical hash (the job-level key).
	Hash string
	// Canonical is the canonical JSON encoding Hash is the sha256 of,
	// kept so shard senders can ship the spec without re-marshaling it
	// per shard (a dagfile spec embeds its whole graph; re-encoding it
	// for every shard attempt of a large grid is pure waste).
	Canonical []byte
	// Cells enumerates the grid policy-major, then point, then repetition —
	// exactly the order Run executes.
	Cells []CellJob

	// compiled holds, per point index, the shared compiled workload the
	// point's cells run on, and variant maps each point index to a dense
	// workload-variant id — points with equal ids share one compiled graph
	// (see PointVariant). Both are resolved once, by the first cell that runs
	// or the first PointVariant call (variants), and each entry compiles on
	// the first cell of its variant: a plan that is only assembled from
	// cached cells files no variant and builds no graph.
	variantOnce sync.Once
	compiled    []*compiledWorkload
	variant     []int
	variantErr  error

	// topo is the plan's platform — the one validation built — and models
	// its configured machine models (spec disturbances applied), one per
	// node: one for every kind but HeatDist. Both are cell-invariant and
	// shared read-only by every cell on every worker: a Platform is
	// immutable and a configured Model is safe for concurrent readers. The
	// models are built lazily, once; Assemble needs only the platform, so a plan
	// merged purely from cached cells never builds a model.
	topo      *topology.Platform
	modelOnce sync.Once
	models    []*machine.Model
	modelErr  error
}

// planBuildHook, when non-nil, observes each lazy build of a plan's machine
// models. Tests count with it.
var planBuildHook func()

// machineModels returns the plan's shared, fully configured machine models,
// one per node, building them on first use. Node 0 runs on the plan's
// platform. Callers must treat the models as read-only.
func (p *Plan) machineModels() ([]*machine.Model, error) {
	p.modelOnce.Do(func() {
		if hook := planBuildHook; hook != nil {
			hook()
		}
		nodes := 1
		if p.Spec.Workload.Kind == HeatDist {
			nodes = p.Spec.Workload.Heat.Defaults().Nodes
		}
		models := make([]*machine.Model, nodes)
		for node := range models {
			nodeTopo := p.topo
			if node > 0 {
				if nodeTopo, p.modelErr = nodePlatform(&p.Spec, node); p.modelErr != nil {
					return
				}
			}
			models[node] = machine.New(nodeTopo)
			for _, d := range p.Spec.Disturb {
				if d.Node == node {
					d.apply(models[node])
				}
			}
		}
		p.models = models
	})
	return p.models, p.modelErr
}

// NewPlan validates the spec and expands it into cell jobs.
func NewPlan(s Spec) (*Plan, error) {
	return newPlan(s, nil)
}

// NewPlanWithKey is NewPlan for a caller that already holds the spec's Key
// (s.Key()): the plan takes its canonical encoding and hash from the key
// instead of deriving them again.
func NewPlanWithKey(s Spec, k Key) (*Plan, error) {
	return newPlan(s, &k)
}

func newPlan(s Spec, k *Key) (*Plan, error) {
	s = s.withDefaults()
	topo, err := s.validate()
	if err != nil {
		return nil, err
	}
	if k == nil {
		key, err := s.Key()
		if err != nil {
			return nil, err
		}
		k = &key
	}
	base, err := k.cellBase()
	if err != nil {
		return nil, err
	}
	ch, err := newCellHasher(base)
	if err != nil {
		return nil, err
	}
	cells := make([]CellJob, 0, len(s.Policies)*len(s.Points)*s.Reps)
	for pi, pol := range s.Policies {
		name := pol.Name()
		for xi, pt := range s.Points {
			for rep := 0; rep < s.Reps; rep++ {
				seed := s.Seed + uint64(rep)*repSeedStride
				cells = append(cells, CellJob{
					Policy: pi, Point: xi, Rep: rep,
					Seed: seed,
					Hash: ch.hash(name, pt, seed),
				})
			}
		}
	}
	return &Plan{Spec: s, Hash: k.Hash, Canonical: k.JSON, Cells: cells, topo: topo}, nil
}

// variants resolves every point to its compiled workload and dense variant
// id on first use, filing the plan's variants in the process-wide compiled
// cache. It cannot fail for a validated spec whose Key encoded: workloadKey
// errs only on a kind Validate rejects or a graph the key failed to encode.
func (p *Plan) variants() ([]*compiledWorkload, []int, error) {
	p.variantOnce.Do(func() {
		p.compiled, p.variant, p.variantErr = compileWorkloads(p.Spec)
	})
	return p.compiled, p.variant, p.variantErr
}

// cellHashVersion tags the engine generation in every cell hash. Bump it
// whenever a change alters the simulated metrics of an unchanged spec
// (scheduler behavior, kernel cost models, seeding) — the canonical spec
// encoding cannot see such changes, so without this tag a version-skewed
// peer would serve old-engine results under the same keys and silently
// mix engine outputs inside one merged Result.
const cellHashVersion = "cell-v2"

// cellHasher derives the canonical cell keys of one plan: the sha256 of the
// engine generation, the spec's cell-invariant base encoding and the cell's
// own coordinates,
//
//	cellHashVersion ‖ 0 ‖ base ‖ "\x00policy=" name "\x00parallelism=" %d
//	"\x00tile=" %d "\x00alpha=" %x of the float's bits "\x00seed=" %d
//
// The point label is excluded: it names the point in reports but cannot
// change the metrics. The prefix up to the base is the same for every cell,
// so it is hashed once and each key starts from a copy of that state.
type cellHasher struct {
	h           hash.Hash
	prefix      []byte // h's marshalled state after the prefix
	suffix, sum []byte // scratch, reused by every key
}

func newCellHasher(base []byte) (*cellHasher, error) {
	h := sha256.New()
	h.Write([]byte(cellHashVersion))
	h.Write([]byte{0})
	h.Write(base)
	prefix, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return nil, err
	}
	return &cellHasher{h: h, prefix: prefix, suffix: make([]byte, 0, 128), sum: make([]byte, 0, sha256.Size)}, nil
}

func (c *cellHasher) hash(policy string, pt Point, seed uint64) string {
	// Restoring a state this hasher marshalled cannot fail.
	_ = c.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(c.prefix)
	b := append(c.suffix[:0], "\x00policy="...)
	b = append(b, policy...)
	b = append(b, "\x00parallelism="...)
	b = strconv.AppendInt(b, int64(pt.Parallelism), 10)
	b = append(b, "\x00tile="...)
	b = strconv.AppendInt(b, int64(pt.Tile), 10)
	b = append(b, "\x00alpha="...)
	b = strconv.AppendUint(b, math.Float64bits(pt.Alpha), 16)
	b = append(b, "\x00seed="...)
	b = strconv.AppendUint(b, seed, 10)
	c.suffix = b
	c.h.Write(b)
	c.sum = c.h.Sum(c.sum[:0])
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], c.sum)
	return string(hx[:])
}

// Cell returns the plan cell at grid position (policy, point, rep); the
// position must be in range (plans enumerate the full grid).
func (p *Plan) Cell(policy, point, rep int) (CellJob, error) {
	if policy < 0 || policy >= len(p.Spec.Policies) ||
		point < 0 || point >= len(p.Spec.Points) ||
		rep < 0 || rep >= p.Spec.Reps {
		return CellJob{}, fmt.Errorf("scenario %q: cell (%d,%d,%d) outside the %dx%dx%d grid",
			p.Spec.Name, policy, point, rep, len(p.Spec.Policies), len(p.Spec.Points), p.Spec.Reps)
	}
	return p.Cells[(policy*len(p.Spec.Points)+point)*p.Spec.Reps+rep], nil
}

// CellLabel renders a cell's coordinates for error messages and logs,
// matching Run's historical error context ("DAM-C at P4 (rep 1)").
func (p *Plan) CellLabel(c CellJob) string {
	return fmt.Sprintf("%s at %s (rep %d)",
		p.Spec.Policies[c.Policy].Name(), p.Spec.Points[c.Point].Label, c.Rep)
}

// PointVariant returns the dense workload-variant id of a point index:
// points with equal ids run structurally identical graphs from one
// compiled workload. Backends hand cells out variant by variant, so the
// cells of one compiled graph run back to back.
func (p *Plan) PointVariant(point int) int {
	_, variant, _ := p.variants() // an error surfaces when the cell runs
	if point < 0 || point >= len(variant) {
		return 0
	}
	return variant[point]
}

// runCellHook, when non-nil, intercepts cell execution. Tests use it to
// inject deterministic mid-grid failures that the public spec surface
// cannot produce.
var runCellHook func(p *Plan, c CellJob) (RunMetrics, error, bool)

// RunCellState executes one cell on caller-owned scratch state: an executor
// worker owns one CellState and passes it to every cell it runs, so engine
// event storage and the runtime are reused across cells. The cell is a pure
// function of the plan's spec and its coordinates — same cell, same
// metrics, bit for bit, wherever and on whatever state it runs. The
// returned metrics carry the cell's seed.
func (p *Plan) RunCellState(st *CellState, c CellJob) (RunMetrics, error) {
	if err := p.checkCell(c); err != nil {
		return RunMetrics{}, err
	}
	if hook := runCellHook; hook != nil {
		if rm, err, handled := hook(p, c); handled {
			return rm, err
		}
	}
	var probe *simrt.Probe
	if p.Spec.Probe && p.Spec.Workload.Kind != HeatDist {
		probe = st.probeFor()
	}
	return p.runCell(c, st, probe)
}

// RunCellTrace executes one cell on caller-owned scratch state, like
// RunCellState, with the state's probe attached regardless of the plan
// spec's Probe setting, and writes the cell's schedule to w as a Chrome
// trace. Cells are pure functions of the plan and the cell coordinates, so
// the trace is exactly the schedule the cell's canonical result came from —
// whether that result was originally computed here, on a remote shard, or
// served from a cache. The trace holds the task slices plus queue-depth,
// ready-task, PTT-error and per-core-utilization counter lanes
// (Probe.WriteChromeTrace); the returned metrics carry the probe's Sched
// aggregate (Probe.Sched), and the count is the trace's task slices.
func (p *Plan) RunCellTrace(st *CellState, c CellJob, w io.Writer) (RunMetrics, int, error) {
	if p.Spec.Workload.Kind == HeatDist {
		return RunMetrics{}, 0, fmt.Errorf("scenario %q: sim tracing is not supported for distributed scenarios", p.Spec.Name)
	}
	if err := p.checkCell(c); err != nil {
		return RunMetrics{}, 0, err
	}
	probe := st.probeFor()
	rm, err := p.runCell(c, st, probe)
	if err != nil {
		return RunMetrics{}, 0, err
	}
	n, err := probe.WriteChromeTrace(w)
	if err != nil {
		return RunMetrics{}, 0, err
	}
	return rm, n, nil
}

// CellTasks returns how many tasks cell c's graph has, without building it:
// an imported graph's node count, or the bound Validate reads off the config.
func (p *Plan) CellTasks(c CellJob) float64 {
	if w := p.Spec.Workload; w.Kind == DAGFile {
		return float64(len(w.DAG.Nodes))
	}
	n, _ := resolve(p.Spec.Workload, p.Spec.Points[c.Point]).cellTasks()
	return n
}

// checkCell rejects a cell whose coordinates fall outside the plan's grid.
func (p *Plan) checkCell(c CellJob) error {
	if c.Policy < 0 || c.Policy >= len(p.Spec.Policies) || c.Point < 0 || c.Point >= len(p.Spec.Points) {
		return fmt.Errorf("scenario %q: cell (%d,%d) outside the %dx%d grid",
			p.Spec.Name, c.Policy, c.Point, len(p.Spec.Policies), len(p.Spec.Points))
	}
	return nil
}

// Assemble builds the plan's Result from its cells' metrics, runs[i] being
// the outcome of p.Cells[i]; runs holds one entry per plan cell. Plan order
// is grid order — policy, then point, then rep — so each grid position's
// Runs is a slice of runs, not a copy: the Result keeps the array. The output
// is bit-identical to a monolithic Run of the plan's spec. Assemble is the
// one constructor of a Result.
func (p *Plan) Assemble(runs []RunMetrics) *Result {
	nx, reps := len(p.Spec.Points), p.Spec.Reps
	res := &Result{Name: p.Spec.Name, Topo: p.topo, Policies: make([]string, len(p.Spec.Policies)),
		Points: append([]Point(nil), p.Spec.Points...), Cells: make([][]Cell, len(p.Spec.Policies))}
	grid := make([]Cell, len(p.Spec.Policies)*nx)
	for pi, pol := range p.Spec.Policies {
		res.Policies[pi] = pol.Name()
		res.Cells[pi] = grid[pi*nx : (pi+1)*nx : (pi+1)*nx]
		for xi, pt := range p.Spec.Points {
			k := (pi*nx + xi) * reps
			res.Cells[pi][xi] = Cell{Policy: res.Policies[pi], Point: pt, Runs: runs[k : k+reps : k+reps]}
		}
	}
	return res
}

// Summarize is Assemble for the cells' summaries; the Summary keeps the array.
func (p *Plan) Summarize(runs []RunSummary) *Summary {
	s := &Summary{Name: p.Spec.Name, Topo: p.topo, Policies: make([]string, len(p.Spec.Policies)),
		Points: append([]Point(nil), p.Spec.Points...), Reps: p.Spec.Reps, Runs: runs}
	for i, pol := range p.Spec.Policies {
		s.Policies[i] = pol.Name()
	}
	return s
}

// Merge is Assemble for cell results keyed by cell hash. Every plan cell must
// be present; cells sharing a hash (identical parameters under different
// labels) fill from the one shared result.
func Merge(p *Plan, cells map[string]RunMetrics) (*Result, error) {
	runs := make([]RunMetrics, len(p.Cells))
	for i, c := range p.Cells {
		rm, ok := cells[c.Hash]
		if !ok {
			return nil, fmt.Errorf("scenario %q: missing cell result for %s", p.Spec.Name, p.CellLabel(c))
		}
		runs[i] = rm
	}
	return p.Assemble(runs), nil
}
