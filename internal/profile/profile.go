// Package profile implements piecewise-constant functions of (virtual) time.
//
// Profiles model every time-varying aspect of the simulated platform: the
// clock frequency of a cluster under DVFS, the availability of a core that
// time-shares with a co-running application, and the memory bandwidth left
// over by a streaming interferer. The simulator composes them into a rate
// function and integrates work over it: given a start time and an amount of
// work, TimeToDo answers when the work completes.
//
// Mul and Min2 compose on demand (see Profile), and TimeToDo samples every
// finite stretch between change points at its midpoint, never at a
// boundary, where rounding can put a time on the wrong side of a transition.
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
//
// A profile is either a leaf, whose segments are stored, or a composite
// that Mul or Min2 built from two inputs: its value at t is op(a.At(t),
// b.At(t)) and it changes where either input does. Nothing is stored for a
// composite, so it is exact at every t however its inputs' periods relate.
type Profile struct {
	segs []Segment
	// period, if > 0, means the segments describe one period of length
	// `period` and repeat forever.
	period float64
	// op, if set, makes the profile the composite op(a, b).
	op   func(x, y float64) float64
	a, b *Profile
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
	if p.op != nil {
		return p.op(p.a.At(t), p.b.At(t))
	}
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
	if p.op != nil {
		return math.Min(p.a.nextChange(t), p.b.nextChange(t))
	}
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
// [t, next). It samples the midpoint rather than the left edge: At(t)
// exactly at a boundary returned by nextChange can land one ulp on the
// wrong side of the corresponding segment start (a periodic profile's
// modulo and its base+Start arithmetic round differently), and that
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
// It is one scan: from start it walks the stretches between change points,
// each at the rate rateOver samples at its midpoint, until the work is done.
// A constant profile is one stretch, so its answer is start + work/v; the
// machine model's constant shortcut relies on that identity.
func (p *Profile) TimeToDo(start, work float64) float64 {
	if work <= 0 {
		return start
	}
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
		if rate > 0 {
			capacity := float64(rate * (next - t))
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
	if p.op != nil {
		return &Profile{a: p, b: Constant(k), op: mul}
	}
	out := &Profile{segs: make([]Segment, len(p.segs)), period: p.period}
	for i, s := range p.segs {
		out.segs[i] = Segment{Start: s.Start, Value: s.Value * k}
	}
	return out
}

func mul(x, y float64) float64 { return x * y }

// Mul returns the pointwise product of two profiles. A constant operand
// scales the other; otherwise the product is composed on demand: its value
// at t is a.At(t) × b.At(t), and it changes where either input does.
func Mul(a, b *Profile) *Profile {
	if a.IsConstant() {
		return b.Scale(a.segs[0].Value)
	}
	if b.IsConstant() {
		return a.Scale(b.segs[0].Value)
	}
	return &Profile{a: a, b: b, op: mul}
}

// Min2 returns the pointwise minimum of two profiles. Two constants give a
// constant, and a constant at or above the other profile's max never binds,
// so the other profile is returned; otherwise the minimum is composed on
// demand like Mul's product.
func Min2(a, b *Profile) *Profile {
	if a.IsConstant() && b.IsConstant() {
		return Constant(math.Min(a.segs[0].Value, b.segs[0].Value))
	}
	if a.IsConstant() && a.segs[0].Value >= b.max() {
		return b
	}
	if b.IsConstant() && b.segs[0].Value >= a.max() {
		return a
	}
	return &Profile{a: a, b: b, op: math.Min}
}

// IsConstant reports whether the profile has a single value everywhere. It
// is false for a composite.
func (p *Profile) IsConstant() bool {
	return p.period == 0 && len(p.segs) == 1
}

// max returns the largest value the profile ever takes. For a composite it
// returns op of its inputs' maxima, an upper bound when both inputs are
// non-negative (as every rate is), which keeps Min2's shortcut sound when
// it is handed a composite.
func (p *Profile) max() float64 {
	if p.op != nil {
		return p.op(p.a.max(), p.b.max())
	}
	m := math.Inf(-1)
	for _, s := range p.segs {
		if s.Value > m {
			m = s.Value
		}
	}
	return m
}
