// Package profile implements piecewise-constant functions of (virtual) time.
//
// Profiles model every time-varying aspect of the simulated platform: the
// clock frequency of a cluster under DVFS, the availability of a core that
// time-shares with a co-running application, and the memory bandwidth left
// over by a streaming interferer. The simulator composes them into a rate
// function and integrates work over it: given a start time and an amount of
// work, TimeToDo answers when the work completes.
//
// Times are float64 seconds of virtual time. Profiles are immutable after
// construction and safe for concurrent readers.
package profile

import (
	"fmt"
	"math"
	"sort"
)

// Segment is one constant piece: Value holds from Start until the next
// segment's Start (the last segment extends to +inf).
type Segment struct {
	Start float64
	Value float64
}

// Profile is a piecewise-constant, right-continuous function of time,
// defined for all t >= 0. The zero value is unusable; build profiles with
// Constant, MustSteps, SquareWave or the combinators.
type Profile struct {
	segs []Segment
	// periodic, if > 0, means the segments describe one period of length
	// `periodic` and repeat forever.
	period float64
}

// Constant returns the profile that is v everywhere.
func Constant(v float64) *Profile {
	return &Profile{segs: []Segment{{Start: 0, Value: v}}}
}

// steps builds a profile from explicit segments. Segments must start at 0
// and have strictly increasing start times.
func steps(segs ...Segment) (*Profile, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("profile: no segments")
	}
	if segs[0].Start != 0 {
		return nil, fmt.Errorf("profile: first segment must start at 0, got %g", segs[0].Start)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Start <= segs[i-1].Start {
			return nil, fmt.Errorf("profile: segment starts must increase (%g after %g)", segs[i].Start, segs[i-1].Start)
		}
	}
	return &Profile{segs: append([]Segment(nil), segs...)}, nil
}

// MustSteps is steps but panics on error.
func MustSteps(segs ...Segment) *Profile {
	p, err := steps(segs...)
	if err != nil {
		panic(err)
	}
	return p
}

// SquareWave returns a periodic profile alternating between hi (for hiDur
// seconds) and lo (for loDur seconds), starting at hi at t=0 and repeating
// forever. It models the paper's DVFS scenario (2035 MHz for 5 s, 345 MHz
// for 5 s).
func SquareWave(hi, lo, hiDur, loDur float64) *Profile {
	if hiDur <= 0 || loDur <= 0 {
		panic("profile: SquareWave durations must be positive")
	}
	return &Profile{
		segs:   []Segment{{Start: 0, Value: hi}, {Start: hiDur, Value: lo}},
		period: hiDur + loDur,
	}
}

// PhasedSquareWave is SquareWave shifted left by phase seconds: the wave's
// value at t is the unshifted wave's value at t+phase. It models bursty
// interferers whose activity windows are staggered across cores instead of
// firing in lock-step.
func PhasedSquareWave(hi, lo, hiDur, loDur, phase float64) *Profile {
	if hiDur <= 0 || loDur <= 0 {
		panic("profile: PhasedSquareWave durations must be positive")
	}
	period := hiDur + loDur
	phase = math.Mod(phase, period)
	if phase < 0 {
		phase += period
	}
	if phase == 0 {
		return SquareWave(hi, lo, hiDur, loDur)
	}
	val := func(t float64) float64 {
		s := math.Mod(t+phase, period)
		if s < hiDur {
			return hi
		}
		return lo
	}
	// The shifted wave has at most two value changes per period: where the
	// unshifted wave wraps to hi and where it drops to lo. Each segment's
	// value is sampled at its midpoint — sampling at the boundary itself
	// is unreliable, since rounding in the boundary computation can land
	// a hair before the transition.
	bounds := []float64{0,
		math.Mod(period-phase, period),
		math.Mod(hiDur-phase+period, period),
		period,
	}
	sort.Float64s(bounds)
	var segs []Segment
	for i := 0; i+1 < len(bounds); i++ {
		lo2, hi2 := bounds[i], bounds[i+1]
		if hi2 <= lo2 {
			continue
		}
		v := val(float64((lo2 + hi2) / 2))
		if len(segs) > 0 && segs[len(segs)-1].Value == v {
			continue
		}
		segs = append(segs, Segment{Start: lo2, Value: v})
	}
	if len(segs) == 1 {
		// Degenerate phases collapse the wave to a constant.
		return Constant(segs[0].Value)
	}
	return &Profile{segs: segs, period: period}
}

// Episode returns a profile that is `base` everywhere except [from, to),
// where it is `during`. It models a bounded interference episode such as a
// co-runner active during part of the run.
func Episode(base, during, from, to float64) *Profile {
	if to <= from {
		panic("profile: Episode requires to > from")
	}
	if from == 0 {
		return MustSteps(Segment{0, during}, Segment{to, base})
	}
	return MustSteps(Segment{0, base}, Segment{from, during}, Segment{to, base})
}

// At returns the profile's value at time t (t < 0 is treated as 0).
func (p *Profile) At(t float64) float64 {
	if t < 0 {
		t = 0
	}
	if p.period > 0 {
		t = math.Mod(t, p.period)
	}
	i := sort.Search(len(p.segs), func(i int) bool { return p.segs[i].Start > t })
	return p.segs[i-1].Value
}

// nextChange returns the first time strictly greater than t at which the
// profile's value may change, or +Inf if the profile is constant after t.
func (p *Profile) nextChange(t float64) float64 {
	if t < 0 {
		t = 0
	}
	if p.period > 0 {
		if math.IsInf(t, 1) {
			return math.Inf(1)
		}
		// Rounding in floor() or in base+Start can produce a candidate at
		// or before t (e.g. when t sits exactly on a period boundary);
		// returning it would stall integration loops that rely on strictly
		// increasing change points. Scan forward until a candidate clears t.
		base := math.Floor(t/p.period) * p.period
		for {
			for _, s := range p.segs {
				if c := base + s.Start; c > t {
					return c
				}
			}
			next := base + p.period
			if next == base {
				// t is so large that one period is below its ulp: no
				// representable change point remains.
				return math.Inf(1)
			}
			base = next
		}
	}
	i := sort.Search(len(p.segs), func(i int) bool { return p.segs[i].Start > t })
	if i == len(p.segs) {
		return math.Inf(1)
	}
	return p.segs[i].Start
}

// rateOver returns the profile's value on the change-free interval
// [t, next). It samples the midpoint rather than the left edge: for
// periodic profiles, At(t) exactly at a boundary returned by nextChange
// can land one ulp on the wrong side of the corresponding segment start
// (the modulo and the base+Start arithmetic round differently), and that
// misclassification accumulates into a real bias over many periods.
func (p *Profile) rateOver(t, next float64) float64 {
	if math.IsInf(next, 1) {
		return p.At(t)
	}
	return p.At(t + float64((next-t)/2))
}

// TimeToDo returns the time at which `work` units complete if processing
// starts at `start` and proceeds at rate p(t) units/second. It returns +Inf
// if the profile is zero forever after start. Zero-rate stretches simply
// pause progress.
//
// This is the simulator's innermost loop, so the common shapes take
// segment-cursor fast paths that never rescan the profile from t=0: a
// constant profile is a single division, and a finite (non-periodic)
// profile locates start's segment with one binary search and then walks an
// index cursor forward. Periodic profiles index directly into the period
// containing t via nextChange's floor arithmetic. All paths produce
// bit-identical results to the generic scan.
func (p *Profile) TimeToDo(start, work float64) float64 {
	if work <= 0 {
		return start
	}
	if p.period == 0 {
		if len(p.segs) == 1 {
			v := p.segs[0].Value
			if v <= 0 {
				return math.Inf(1)
			}
			return start + work/v
		}
		if start >= 0 {
			return p.timeToDoFinite(start, work)
		}
	}
	return p.timeToDoScan(start, work)
}

// timeToDoFinite is the cursor fast path for finite multi-segment profiles
// with start >= 0. It mirrors timeToDoScan exactly — including rateOver's
// midpoint sampling and its rounding behavior when the midpoint lands on
// the next boundary — but resolves each segment by cursor index instead of
// re-searching the segment list per change point.
func (p *Profile) timeToDoFinite(start, work float64) float64 {
	segs := p.segs
	i := sort.Search(len(segs), func(i int) bool { return segs[i].Start > start }) - 1
	t := start
	remaining := work
	for {
		if i == len(segs)-1 {
			// Final segment: the rate holds forever.
			rate := segs[i].Value
			if rate <= 0 {
				return math.Inf(1)
			}
			return t + remaining/rate
		}
		next := segs[i+1].Start
		// rateOver samples At(t + (next-t)/2); with t in segment i the
		// midpoint stays in segment i unless rounding lands it exactly on
		// `next` (possible when next-t is at the ulp scale).
		rate := segs[i].Value
		if t+float64((next-t)/2) >= next {
			rate = segs[i+1].Value
		}
		if rate > 0 {
			capacity := float64(rate * (next - t))
			if capacity >= remaining {
				return t + remaining/rate
			}
			remaining -= capacity
		}
		t = next
		i++
	}
}

// timeToDoScan is the generic integration loop over nextChange/rateOver,
// used for periodic profiles (whose change points are generated by period
// arithmetic, not stored) and as the reference semantics for the fast
// paths.
func (p *Profile) timeToDoScan(start, work float64) float64 {
	t := start
	remaining := work
	for {
		next := p.nextChange(t)
		rate := p.rateOver(t, next)
		if math.IsInf(next, 1) {
			if rate <= 0 {
				return math.Inf(1)
			}
			return t + remaining/rate
		}
		span := next - t
		if rate > 0 {
			capacity := float64(rate * span)
			if capacity >= remaining {
				return t + remaining/rate
			}
			remaining -= capacity
		}
		t = next
	}
}

// Scale returns a new profile equal to p multiplied by k everywhere.
func (p *Profile) Scale(k float64) *Profile {
	out := &Profile{segs: make([]Segment, len(p.segs)), period: p.period}
	for i, s := range p.segs {
		out.segs[i] = Segment{Start: s.Start, Value: s.Value * k}
	}
	return out
}

// Mul returns the pointwise product of two profiles, materializing the
// merged breakpoints; when both operands are periodic with commensurable
// periods the result is periodic over their least common multiple.
func Mul(a, b *Profile) *Profile {
	// Fast paths: constant operands.
	if a.IsConstant() {
		return b.Scale(a.segs[0].Value)
	}
	if b.IsConstant() {
		return a.Scale(b.segs[0].Value)
	}
	return combine(a, b, func(x, y float64) float64 { return x * y })
}

// Min2 returns the pointwise minimum of two profiles, materialized over the
// same horizon strategy as Mul.
func Min2(a, b *Profile) *Profile {
	if a.IsConstant() && b.IsConstant() {
		return Constant(math.Min(a.segs[0].Value, b.segs[0].Value))
	}
	// Short-circuit: a constant that never binds.
	if a.IsConstant() && a.segs[0].Value >= b.max() {
		return b
	}
	if b.IsConstant() && b.segs[0].Value >= a.max() {
		return a
	}
	return combine(a, b, math.Min)
}

// combine merges the breakpoints of two profiles applying op pointwise,
// preserving periodicity when the periods are commensurable.
func combine(a, b *Profile, op func(x, y float64) float64) *Profile {
	const horizonPeriods = 64
	horizon := 0.0
	period := 0.0
	switch {
	case a.period > 0 && b.period > 0:
		period = lcmFloat(a.period, b.period)
		horizon = period
	case a.period > 0:
		horizon = math.Max(a.period*horizonPeriods, lastStart(b)+a.period)
	case b.period > 0:
		horizon = math.Max(b.period*horizonPeriods, lastStart(a)+b.period)
	default:
		horizon = math.Max(lastStart(a), lastStart(b))
	}
	var segs []Segment
	t := 0.0
	for {
		segs = append(segs, Segment{Start: t, Value: op(a.At(t), b.At(t))})
		next := math.Min(a.nextChange(t), b.nextChange(t))
		if next >= horizon || math.IsInf(next, 1) {
			break
		}
		t = next
	}
	return &Profile{segs: segs, period: period}
}

// IsConstant reports whether the profile has a single value everywhere.
func (p *Profile) IsConstant() bool {
	return p.period == 0 && len(p.segs) == 1
}

// max returns the largest value the profile ever takes.
func (p *Profile) max() float64 {
	m := math.Inf(-1)
	for _, s := range p.segs {
		if s.Value > m {
			m = s.Value
		}
	}
	return m
}

func lastStart(p *Profile) float64 {
	return p.segs[len(p.segs)-1].Start
}

// lcmFloat returns the least common multiple of two positive floats if they
// are commensurable within a small tolerance; otherwise it returns a horizon
// covering many periods of both.
func lcmFloat(a, b float64) float64 {
	// Try small integer multiples.
	for i := 1; i <= 64; i++ {
		m := a * float64(i)
		ratio := m / b
		if math.Abs(ratio-math.Round(ratio)) < 1e-9 {
			return m
		}
	}
	return a * b // not commensurable in small multiples; generous horizon
}
