package profile

import (
	"math"
	"testing"
)

// fuzzInput builds one input of a fuzzed composition: a phased square wave,
// or, with steps set, the one-off profile hi, lo for loDur seconds from
// hiDur, then hi again. ok is false outside the bounds the target keeps:
// levels in [1e-9, 1e12] and durations in [1e-6, 1e6] seconds.
func fuzzInput(steps bool, hi, lo, hiDur, loDur, phase float64) (p *Profile, period float64, ok bool) {
	for _, v := range []float64{hi, lo} {
		if !(v >= 1e-9 && v <= 1e12) {
			return nil, 0, false
		}
	}
	for _, d := range []float64{hiDur, loDur} {
		if !(d >= 1e-6 && d <= 1e6) {
			return nil, 0, false
		}
	}
	if steps {
		return MustSteps(Segment{0, hi}, Segment{hiDur, lo}, Segment{hiDur + loDur, hi}), 0, true
	}
	if math.IsNaN(phase) || math.IsInf(phase, 0) {
		return nil, 0, false
	}
	return PhasedSquareWave(hi, lo, hiDur, loDur, phase), hiDur + loDur, true
}

// FuzzComposedProfile composes two client-shaped inputs by Mul or Min2 and
// checks that the composite is op of its inputs, that TimeToDo returns no
// earlier than start, and that it inverts integrate.
func FuzzComposedProfile(f *testing.F) {
	// One seed per shape of compose_test.go, each checked at a time where a
	// product built up front read wrong: a stretch start rounded before a
	// burst transition; a one-off profile times a wave past 64 of its
	// periods; a flat one-off bound under a DVFS cap, likewise; and two
	// waves with no small common period.
	f.Add(false, false, 2.035e9, 3.45e8, 0.05, 0.05, 0.0, false, 0.4, 1.0, 0.01, 0.02, 0.0, 0.07, 1e8, 0.08)
	f.Add(false, true, 1e9, 2e9, 1.0, 1.0, 0.0, false, 0.5, 1.0, 1.0, 2.0, 0.0, 190.0, 5e9, 192.5)
	f.Add(true, true, 2e9, 2e9, 5.0, 5.0, 0.0, false, 5e9, 8e8, 5.0, 5.0, 0.0, 635.0, 1e10, 642.5)
	f.Add(false, false, 2e9, 3e8, 5.0, 5.0, 0.0, false, 0.5, 1.0, 0.123, 0.456, 0.0, 5.5, 1e9, 6.0)
	f.Fuzz(func(t *testing.T, useMin, aSteps bool, aHi, aLo, aHiDur, aLoDur, aPhase float64,
		bSteps bool, bHi, bLo, bHiDur, bLoDur, bPhase float64, start, work, at float64) {
		a, aPeriod, okA := fuzzInput(aSteps, aHi, aLo, aHiDur, aLoDur, aPhase)
		b, bPeriod, okB := fuzzInput(bSteps, bHi, bLo, bHiDur, bLoDur, bPhase)
		if !okA || !okB || math.IsNaN(start+work+at) || math.IsInf(start+work+at, 0) {
			t.Skip()
		}
		op, p := mul, Mul(a, b)
		if useMin {
			op, p = math.Min, Min2(a, b)
		}
		start = math.Mod(math.Abs(start), 1e4)
		// Bound the work so that the scan walks at most 10⁴ periods of the
		// faster wave, or 10⁴ s with no wave, at the slowest rate.
		horizon := 1e4
		for _, per := range []float64{aPeriod, bPeriod} {
			if per > 0 {
				horizon = math.Min(horizon, 1e4*per)
			}
		}
		slowest := op(math.Min(aHi, aLo), math.Min(bHi, bLo))
		work = math.Min(math.Abs(work), horizon*slowest)

		end := p.TimeToDo(start, work)
		if !(end >= start) || math.IsInf(end, 1) {
			t.Fatalf("TimeToDo(%v, %v) = %v", start, work, end)
		}
		// The last stretch's rate times one ulp of end is as close as any
		// float end can come to the work.
		fastest := op(math.Max(aHi, aLo), math.Max(bHi, bLo))
		tol := 1e-9*work + 2*fastest*(math.Nextafter(end, math.Inf(1))-end)
		if got := integrate(p, start, end); math.Abs(got-work) > tol {
			t.Fatalf("integrate(%v, TimeToDo(%v, %v) = %v) = %v", start, start, work, end, got)
		}
		for k := 0; k <= 64; k++ {
			tm := math.Abs(at)
			if k > 0 {
				tm = start + (end-start)*float64(k)/64
			}
			if got, want := p.At(tm), op(a.At(tm), b.At(tm)); got != want {
				t.Fatalf("At(%v) = %v, want %v", tm, got, want)
			}
		}
	})
}
