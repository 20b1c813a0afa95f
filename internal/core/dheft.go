package core

import "dynasym/internal/topology"

// dheft implements a dynamic Heterogeneous-Earliest-Finish-Time baseline in
// the spirit of Chronaki et al.'s dHEFT (used by the paper's related work
// as the reference for CATS): every task — regardless of priority — is
// placed on the single core that minimizes its estimated finish time,
// where task run times are discovered online through the PTT rather than
// known in advance.
//
// Estimated finish time for core c is
//
//	EFT(c) = load(c) + PTT(c, 1)
//
// with load(c) supplied by the runtime (earliest time core c can start new
// work, 0 when unknown). Unmeasured cores are explored first, like every
// PTT search in this package. dHEFT is not part of the paper's Table 1; it
// exists as an extension baseline for the ablation experiments.
type dheft struct{}

func (dheft) Name() string             { return "dHEFT" }
func (dheft) UsesPTT() bool            { return true }
func (dheft) AllowPrioritySteal() bool { return false }

// WakePlace routes every task to its earliest-finishing core.
func (d dheft) WakePlace(ctx *Context) (int, bool) {
	pl := d.DispatchPlace(ctx)
	return pl.Leader, true
}

// DispatchPlace scans width-1 places minimizing load + predicted time.
func (dheft) DispatchPlace(ctx *Context) topology.Place {
	best := topology.Place{Leader: ctx.Self, Width: 1}
	bestScore := -1.0
	for _, pl := range ctx.Topo.Places() {
		if pl.Width != 1 {
			continue
		}
		v := ctx.Table.Value(pl)
		if v == 0 {
			// Unmeasured: explore immediately.
			return pl
		}
		s := v
		if ctx.Load != nil {
			s += ctx.Load(pl.Leader)
		}
		if bestScore < 0 || s < bestScore {
			best, bestScore = pl, s
		}
	}
	return best
}
