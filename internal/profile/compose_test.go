package profile

import (
	"fmt"
	"math"
	"testing"
)

// composedShape is a profile built by Mul or Min2 together with the inputs
// and the pointwise operation it must equal.
type composedShape struct {
	name string
	a, b *Profile
	op   func(x, y float64) float64
	p    *Profile
}

// composedShapes are four compositions a client can request by stacking a
// clock disturbance and an availability disturbance on one cluster (or a
// bandwidth cap and a clock), each a shape a materialised product once got
// wrong.
func composedShapes() []composedShape {
	shape := func(name string, a, b *Profile, useMin bool) composedShape {
		if useMin {
			return composedShape{name, a, b, math.Min, Min2(a, b)}
		}
		return composedShape{name, a, b, mul, Mul(a, b)}
	}
	return []composedShape{
		// A DVFS clock times a burst co-runner's availability, with the
		// waves of the service smoke's "disturb dvfs+burst" job: stretches
		// whose start rounds a hair before a burst transition.
		shape("dvfs×burst",
			SquareWave(2.035e9, 3.45e8, 0.05, 0.05),
			PhasedSquareWave(0.4, 1, 0.01, 0.02, 0), false),
		// A throttle ramp (one-off steps) times a repeating 3 s burst: the
		// product keeps changing long after the ramp ends.
		shape("throttle×burst",
			MustSteps(Segment{0, 2e9}, Segment{1, 1.5e9}, Segment{2, 1e9}),
			SquareWave(0.5, 1, 1, 2), false),
		// A constant bandwidth share that binds only while a DVFS-shaped
		// per-core cap is high.
		shape("min(share, dvfs cap)",
			Constant(2e9),
			SquareWave(5e9, 8e8, 5, 5), true),
		// A 10 s DVFS wave times a 0.123 + 0.456 s burst: periods with no
		// small common multiple.
		shape("dvfs×short burst",
			SquareWave(2e9, 3e8, 5, 5),
			SquareWave(0.5, 1, 0.123, 0.456), false),
	}
}

// xorshift returns a deterministic generator of floats in [0, 1000).
func xorshift() func() float64 {
	x := uint64(0x9E3779B97F4A7C15)
	return func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x%1_000_000) / 1_000
	}
}

// A composed profile is op of its inputs everywhere: checked at the
// midpoint of every stretch between consecutive change points of either
// input over [0, 1000 s].
func TestComposedProfileIsOpOfInputs(t *testing.T) {
	for _, s := range composedShapes() {
		bad, first := 0, ""
		for lo := 0.0; lo < 1000; {
			hi := math.Min(s.a.nextChange(lo), s.b.nextChange(lo))
			if math.IsInf(hi, 1) {
				hi = lo + 1000
			}
			mid := lo + (hi-lo)/2
			got, want := s.p.At(mid), s.op(s.a.At(mid), s.b.At(mid))
			if got != want {
				if bad == 0 {
					first = fmt.Sprintf("At(%v) = %v, want %v", mid, got, want)
				}
				bad++
			}
			lo = hi
		}
		if bad > 0 {
			t.Errorf("%s: %d stretches disagree with op of the inputs; first %s", s.name, bad, first)
		}
	}
}

// TimeToDo inverts integrate on every composed shape.
func TestComposedTimeToDoInvertsIntegrate(t *testing.T) {
	rnd := xorshift()
	for _, s := range composedShapes() {
		for i := 0; i < 200; i++ {
			start := rnd()
			// Up to 20 s of work at the shape's largest rate.
			work := rnd() / 50 * s.op(s.a.max(), s.b.max())
			checkInverse(t, s.name, s.p, start, work)
		}
	}
}

// checkInverse fails unless integrate(p, start, TimeToDo(start, work))
// equals work to within 1e-9 relative.
func checkInverse(t *testing.T, name string, p *Profile, start, work float64) {
	t.Helper()
	end := p.TimeToDo(start, work)
	if end < start {
		t.Fatalf("%s: TimeToDo(%v, %v) = %v, before start", name, start, work, end)
	}
	if math.IsInf(end, 1) {
		return
	}
	if got := integrate(p, start, end); math.Abs(got-work) > 1e-9*work {
		t.Errorf("%s: integrate(%v, TimeToDo(%v, %v) = %v) = %v", name, start, start, work, end, got)
	}
}
