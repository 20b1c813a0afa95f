package workloads

import (
	"fmt"
	"math"

	"dynasym/internal/dag"
	"dynasym/internal/kernels"
	"dynasym/internal/machine"
	"dynasym/internal/ptt"
	"dynasym/internal/simnet"
	"dynasym/internal/simrt"
	"dynasym/internal/topology"
)

// HeatDist is the paper's distributed 2D Heat stencil (Figure 10): each
// node owns a horizontal slab of the grid; every iteration each node
// updates its row blocks and runs one boundary-exchange task that swaps
// ghost cells with its neighbours ("MPI calls are encapsulated into
// specific TAOs ... There is one such exchange per iteration"). Following
// the paper, the exchange tasks are the high-priority (critical) tasks.
//
// The simulated variant runs one runtime per node over a shared
// discrete-event engine with a simnet network; each node's exchange tasks
// (type kernels.TypeComm, iteration in Task.Iter) are executed by that
// node's ExecHook, whose completion is the later of the local CPU (MPI
// stack) time and the arrival of all inbound boundaries — blocking
// MPI_Sendrecv semantics.
type HeatDist struct {
	// Nodes is the number of distributed-memory nodes (ranks).
	Nodes int
	// BlocksPerNode is the number of compute tasks per node per iteration.
	BlocksPerNode int
	// Iters is the number of Jacobi iterations.
	Iters int
	// RowsPerBlock and Cols size each block; they determine compute cost
	// and (with 8-byte cells) the boundary message size.
	RowsPerBlock, Cols int

	// ComputeCost and CommCost are derived in NewHeatDist but exported
	// for inspection and tests.
	ComputeCost machine.Cost
	CommCost    machine.Cost
}

// HeatTypeCompute is the PTT task type of heat block updates.
const HeatTypeCompute ptt.TypeID = kernels.TypeUser + 8

// HeatDistConfig parameterizes NewHeatDist.
type HeatDistConfig struct {
	Nodes         int
	BlocksPerNode int
	Iters         int
	RowsPerBlock  int
	Cols          int
}

// Defaults fills unset fields with Figure 10 scale: four 20-core nodes,
// blocks sized so a width-1 execution is mildly DRAM-bound while a molded
// execution becomes LLC-resident (the cache-sharing effect the paper
// credits for the moldability gains on Heat), and boundary exchanges whose
// CPU share (MPI progress, packing, matching) is a substantial part of an
// iteration, so that where and when the critical tasks run moves the
// spine.
func (c HeatDistConfig) Defaults() HeatDistConfig {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.BlocksPerNode == 0 {
		c.BlocksPerNode = 80
	}
	if c.Iters == 0 {
		c.Iters = 60
	}
	if c.RowsPerBlock == 0 {
		c.RowsPerBlock = 16
	}
	if c.Cols == 0 {
		c.Cols = 32768
	}
	return c
}

// NewHeatDist builds the workload description.
func NewHeatDist(cfg HeatDistConfig) *HeatDist {
	cfg = cfg.Defaults()
	hd := &HeatDist{
		Nodes:         cfg.Nodes,
		BlocksPerNode: cfg.BlocksPerNode,
		Iters:         cfg.Iters,
		RowsPerBlock:  cfg.RowsPerBlock,
		Cols:          cfg.Cols,
	}
	pts := float64(cfg.RowsPerBlock * cfg.Cols)
	hd.ComputeCost = machine.Cost{
		Ops:          6 * pts / 1.0,
		Bytes:        2 * 8 * pts,
		WorkingSet:   2 * 8 * pts,
		SyncSeconds:  2e-6,
		WidthPenalty: 0.06,
	}
	boundary := float64(cfg.Cols) * 8
	hd.CommCost = machine.Cost{
		// The MPI stack (progress engine, matching, copies for both
		// directions) dominates an exchange's on-core cost.
		Ops:          boundary * 32,
		Bytes:        4 * boundary,
		SyncSeconds:  1e-6,
		WidthPenalty: 0.8, // message handling barely parallelizes
	}
	return hd
}

// BoundaryBytes returns the size of one exchanged boundary message.
func (hd *HeatDist) BoundaryBytes() float64 { return float64(hd.Cols) * 8 }

// peers returns the neighbour nodes of `node` in the 1-D decomposition.
func (hd *HeatDist) peers(node int) []int {
	var ps []int
	if node > 0 {
		ps = append(ps, node-1)
	}
	if node < hd.Nodes-1 {
		ps = append(ps, node+1)
	}
	return ps
}

// BuildNode constructs node `node`'s task graph. The per-iteration exchange
// task has type kernels.TypeComm and is marked high priority.
func (hd *HeatDist) BuildNode(node int) *dag.Graph {
	g := dag.New()
	B := hd.BlocksPerNode
	prev := make([]*dag.Task, B)
	var prevComm *dag.Task
	for iter := 0; iter < hd.Iters; iter++ {
		// One exchange task per iteration: it needs the previous
		// iteration's edge blocks (the rows it ships out).
		comm := &dag.Task{
			Label: fmt.Sprintf("n%d.exchange[%d]", node, iter),
			Type:  kernels.TypeComm,
			High:  true,
			Cost:  hd.CommCost,
			Iter:  iter,
		}
		g.Add(comm, commDeps(prev[0], prev[B-1], prevComm)...)
		prevComm = comm

		cur := make([]*dag.Task, B)
		for b := 0; b < B; b++ {
			t := &dag.Task{
				Label: fmt.Sprintf("n%d.heat[%d.%d]", node, iter, b),
				Type:  HeatTypeCompute,
				Cost:  hd.ComputeCost,
				Iter:  iter,
			}
			var deps []*dag.Task
			if iter > 0 {
				deps = append(deps, prev[b])
				if b > 0 {
					deps = append(deps, prev[b-1])
				}
				if b < B-1 {
					deps = append(deps, prev[b+1])
				}
			}
			// Edge blocks consume the ghost cells from this iteration's
			// exchange.
			if b == 0 || b == B-1 {
				deps = append(deps, comm)
			}
			g.Add(t, deps...)
			cur[b] = t
		}
		prev = cur
	}
	return g
}

// commDeps drops nil and duplicate dependencies (first iteration has none;
// with one block the two edge blocks coincide).
func commDeps(deps ...*dag.Task) []*dag.Task {
	var out []*dag.Task
	for _, d := range deps {
		if d == nil {
			continue
		}
		dup := false
		for _, o := range out {
			if o == d {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, d)
		}
	}
	return out
}

// Hook returns the execution hook of node `node`'s runtime: it takes over
// the node's exchange tasks, fires the boundary sends immediately, and
// finishes the task when both the local CPU work and all inbound boundaries
// are done.
func (hd *HeatDist) Hook(net *simnet.Network, node int) simrt.ExecHook {
	return &heatExchange{net: net, node: node, peers: hd.peers(node), bytes: hd.BoundaryBytes()}
}

// heatExchange is one node's hook and the receiver of its inbound
// boundaries. A node's exchanges form a dependency chain, so at most one is
// in flight: its handle and countdown live here.
type heatExchange struct {
	net   *simnet.Network
	node  int
	peers []int
	bytes float64

	rt      *simrt.Runtime
	x       simrt.Execution
	pending int     // inbound boundaries the exchange in flight still waits for
	latest  float64 // latest of its CPU finish and the arrivals so far
}

// Exec implements simrt.ExecHook.
func (h *heatExchange) Exec(rt *simrt.Runtime, x simrt.Execution, t *dag.Task, pl topology.Place, start float64) bool {
	// Without neighbours an exchange is its CPU work only: the machine
	// model's business, like any other task.
	if t.Type != kernels.TypeComm || len(h.peers) == 0 {
		return false
	}
	if h.pending != 0 {
		panic(fmt.Sprintf("workloads: node %d started %q with an exchange in flight", h.node, t.Label))
	}
	// Outbound boundaries leave now; completion needs every inbound
	// boundary plus the CPU work (the MPI stack for both directions). Recv
	// may complete synchronously when the peer's boundary already arrived,
	// so the countdown is primed before the loop and Finish runs exactly
	// once, on the last arrival.
	h.rt, h.x, h.pending = rt, x, len(h.peers)
	h.latest = rt.ModelDuration(t.Cost, pl, start)
	for _, peer := range h.peers {
		h.net.Send(simnet.MsgKey{From: h.node, To: peer, Tag: int64(t.Iter)}, h.bytes)
		h.net.Recv(simnet.MsgKey{From: peer, To: h.node, Tag: int64(t.Iter)}, h)
	}
	return true
}

// Arrived implements simnet.Receiver for the exchange in flight.
func (h *heatExchange) Arrived(at float64) {
	h.latest = math.Max(h.latest, at)
	if h.pending--; h.pending == 0 {
		h.rt.Finish(h.x, h.latest)
	}
}
