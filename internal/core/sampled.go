package core

import (
	"fmt"
	"strconv"
	"strings"

	"dynasym/internal/topology"
)

// Sampled wraps a dynamic-asymmetry policy and replaces its exhaustive
// global PTT search with a sampled one: each decision scans the task's
// home cluster's places plus K pseudo-random other places and the
// best-known place so far. The paper measures ~1 µs for a full-table scan
// on the 6-core TX2 and explicitly leaves "the design and evaluation of
// scalable performance prediction models" as future work; this is that
// extension — O(K) decisions on many-core platforms. What it costs in
// placement quality against the exhaustive search is unmeasured.
type Sampled struct {
	Policy
	// K is the number of random candidate places per decision (≥1).
	K int
}

// NewSampled wraps a policy with k ≥ 1 random candidates per decision
// (ByName rejects a smaller K).
func NewSampled(p Policy, k int) Sampled { return Sampled{Policy: p, K: k} }

// Name labels the wrapper.
func (s Sampled) Name() string { return s.Policy.Name() + "~" + itoa(s.K) }

// WakePlace mirrors DispatchPlace for high-priority tasks.
func (s Sampled) WakePlace(ctx *Context) (int, bool) {
	if !ctx.High {
		return s.Policy.WakePlace(ctx)
	}
	pl := s.DispatchPlace(ctx)
	return pl.Leader, true
}

// DispatchPlace performs the sampled global search for high-priority tasks
// and defers to the wrapped policy otherwise. With DAM-P as the base the
// search minimizes predicted time; with any other base it minimizes cost
// (predicted time × width), the paper's DAM-C objective.
func (s Sampled) DispatchPlace(ctx *Context) topology.Place {
	if !ctx.High || ctx.Table == nil {
		return s.Policy.DispatchPlace(ctx)
	}
	minCost := s.Policy.Name() != "DAM-P"
	t := ctx.Table
	places := ctx.Topo.Places()
	// Candidate set: local cluster places + K random samples, compared by
	// dense place id (a place's index in Places is its id) so each probe is
	// one table load. Unmeasured candidates keep the exploration property
	// within the sample.
	scoreID := func(id int) float64 {
		v := t.ValueByID(id)
		if minCost {
			v *= float64(places[id].Width)
		}
		return v
	}
	local := ctx.Topo.LocalPlaceIDs(ctx.Self)
	bestID := int(local[0]) // widths ascend, so entry 0 is (Self, 1)
	bestScore := scoreID(bestID)
	for _, cid := range local[1:] {
		if sc := scoreID(int(cid)); sc < bestScore {
			bestID, bestScore = int(cid), sc
		}
	}
	for i := 0; i < s.K; i++ {
		if id := ctx.Rand.Intn(len(places)); scoreID(id) < bestScore {
			bestID = id
			bestScore = scoreID(id)
		}
	}
	return places[bestID]
}

// maxSampledK bounds K in a "<base>~<K>" policy name. A decision probes
// about K places, and a name is outside input, so K is capped like a cell's
// size: 1024 is 32 times the largest K the experiments use, and a platform
// of 1024 cores (the most a spec may name) has at least 1024 places, so a
// capped sampled search costs about what the exhaustive one costs there.
const maxSampledK = 1 << 10

// sampledByName resolves name, split at its last '~' into base and K. The
// base must be a Table 1 policy or dHEFT, neither sampled nor an ablation
// wrapper: the search objective is read off the base's name (see
// DispatchPlace).
func sampledByName(name, base, kText string) (Policy, error) {
	if strings.Contains(base, "~") {
		return nil, fmt.Errorf("core: policy %q: the base of a sampled policy cannot itself be sampled", name)
	}
	k, err := strconv.Atoi(kText) // a K past the int range reads as math.MaxInt
	if k > maxSampledK {
		return nil, fmt.Errorf("core: policy %q: K of %s exceeds MaxSampledK (%d)", name, kText, maxSampledK)
	}
	if err != nil || k < 1 {
		return nil, fmt.Errorf("core: unknown policy %q", name)
	}
	p := builtin(base)
	if p == nil {
		return nil, fmt.Errorf("core: unknown policy %q", name)
	}
	return NewSampled(p, k), nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
