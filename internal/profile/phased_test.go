package profile

import (
	"math"
	"testing"
)

// The phased wave must equal the unshifted wave sampled at t+phase, for
// arbitrary (including awkwardly rounded) phases.
func TestPhasedSquareWaveMatchesShiftedWave(t *testing.T) {
	hi, lo := 9.0, 1.0
	hiDur, loDur := 0.1, 0.2
	period := hiDur + loDur
	for _, phase := range []float64{0, 0.05, 0.1, 0.15, 0.25, 0.3, 0.9999, -0.05} {
		p := PhasedSquareWave(hi, lo, hiDur, loDur, phase)
		for _, tm := range []float64{0, 0.01, 0.049, 0.07, 0.12, 0.26, 1.0, 7.33} {
			// Sample away from exact segment boundaries: the reference
			// below and the profile may legitimately disagree there by
			// one ulp of boundary rounding.
			s := math.Mod(math.Mod(tm+phase, period)+period, period)
			if math.Min(math.Abs(s-hiDur), math.Min(s, period-s)) < 1e-9 {
				continue
			}
			want := lo
			if s < hiDur {
				want = hi
			}
			if got := p.At(tm); got != want {
				t.Errorf("phase %g: At(%g) = %g, want %g", phase, tm, got, want)
			}
		}
	}
}

// Regression: boundary rounding once collapsed the shifted wave to a
// constant (the lo segment vanished), which made a bursty co-runner
// disappear entirely.
func TestPhasedSquareWaveKeepsBothLevels(t *testing.T) {
	p := PhasedSquareWave(0.4, 1.0, 0.1, 0.2, 0.05)
	lo := math.Inf(1)
	for at := 0.0; at < 0.3; at += 0.01 {
		lo = min(lo, p.At(at))
	}
	if lo != 0.4 || p.max() != 1.0 {
		t.Fatalf("wave lost a level: min=%g max=%g, want 0.4 and 1.0", lo, p.max())
	}
	// Average availability over many periods ≈ (0.4*0.1 + 1.0*0.2) / 0.3.
	avg := integrate(p, 0, 30) / 30
	want := (0.4*0.1 + 1.0*0.2) / 0.3
	if math.Abs(avg-want) > 1e-3 {
		t.Fatalf("average %g, want %g", avg, want)
	}
}

// Regression: nextChange on a periodic profile must return a strictly
// increasing sequence even when t sits exactly on (or one ulp past) a
// period boundary; a non-increasing step stalled TimeToDo forever.
func TestNextChangeStrictlyIncreasesOnPeriodic(t *testing.T) {
	waves := []*Profile{
		SquareWave(2, 1, 0.1, 0.2),
		PhasedSquareWave(2, 1, 0.1, 0.2, 0.05),
	}
	for wi, p := range waves {
		tm := 0.0
		for i := 0; i < 10000; i++ {
			next := p.nextChange(tm)
			if !(next > tm) {
				t.Fatalf("wave %d: NextChange(%.17g) = %.17g did not advance", wi, tm, next)
			}
			tm = next
		}
		// Probe exact and near-boundary times directly.
		period := 0.30000000000000004
		for k := 1; k < 50; k++ {
			at := float64(k) * period
			for _, probe := range []float64{at, math.Nextafter(at, 0), math.Nextafter(at, math.Inf(1))} {
				if next := p.nextChange(probe); !(next > probe) {
					t.Fatalf("wave %d: NextChange(%.17g) = %.17g did not advance", wi, probe, next)
				}
			}
		}
	}
}

// Regression: periodic nextChange must terminate (returning +Inf) when no
// representable change point remains — t = +Inf, or t so large that one
// period is below its ulp.
func TestNextChangeSaturatesOnPeriodic(t *testing.T) {
	p := SquareWave(2, 1, 5, 5)
	if next := p.nextChange(math.Inf(1)); !math.IsInf(next, 1) {
		t.Fatalf("NextChange(+Inf) = %g, want +Inf", next)
	}
	if next := p.nextChange(1e17); !(next > 1e17) {
		t.Fatalf("NextChange(1e17) = %g did not advance", next)
	}
}

func TestPhasedSquareWaveDegenerate(t *testing.T) {
	// A phase of exactly one period is no shift at all.
	a := PhasedSquareWave(2, 1, 1, 1, 2)
	b := SquareWave(2, 1, 1, 1)
	for _, tm := range []float64{0, 0.5, 1.5, 2.5, 10.25} {
		if a.At(tm) != b.At(tm) {
			t.Fatalf("full-period phase changed the wave at t=%g", tm)
		}
	}
}
