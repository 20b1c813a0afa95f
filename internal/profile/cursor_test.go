package profile

import (
	"math"
	"testing"
)

// The cursor fast paths must be bit-identical to the generic scan for every
// profile shape: the scenario engine's byte-exact determinism fingerprints
// (and the perf rebaseline's "numbers unchanged" guarantee) depend on it.
func TestTimeToDoMatchesScanBitExact(t *testing.T) {
	profiles := map[string]*Profile{
		"constant": Constant(3.5),
		"zero":     Constant(0),
		"steps": MustSteps(
			Segment{0, 2}, Segment{0.3, 0}, Segment{1.1, 5}, Segment{2.7, 0.25},
			Segment{3.14159, 7e3}, Segment{100, 1e-3},
		),
		"steps-zero-tail": MustSteps(Segment{0, 1}, Segment{1, 0}),
		"square":          SquareWave(2035e6, 345e6, 5, 5),
		"phased":          PhasedSquareWave(1, 0.3, 0.7, 1.3, 0.41),
		"combined": Mul(
			MustSteps(Segment{0, 1}, Segment{0.5, 0.4}, Segment{2, 0.9}),
			MustSteps(Segment{0, 2}, Segment{0.8, 1}, Segment{5, 3}),
		),
		"ulp-boundary": MustSteps(
			Segment{0, 1}, Segment{1, 2}, Segment{math.Nextafter(1, 2), 3},
		),
	}
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x%1_000_000) / 1_000
	}
	for name, p := range profiles {
		// Scale work to the profile's magnitude so completion stays within
		// a bounded virtual-time horizon (periodic scans walk every period
		// boundary until the work is done).
		workScale := (1 + p.max()) * 20
		for i := 0; i < 2000; i++ {
			start := rnd()
			work := rnd() / 1000 * workScale
			if i%17 == 0 {
				work = 0
			}
			if i%23 == 0 {
				// Land start exactly on a change point.
				start = p.nextChange(start)
				if math.IsInf(start, 1) {
					start = 0
				}
			}
			got := p.TimeToDo(start, work)
			want := start
			if work > 0 {
				want = p.timeToDoScan(start, work)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: TimeToDo(%v, %v) = %v, scan says %v", name, start, work, got, want)
			}
		}
	}
}

// Negative starts must keep the old clamping behavior.
func TestTimeToDoNegativeStart(t *testing.T) {
	p := MustSteps(Segment{0, 1}, Segment{2, 3})
	got := p.TimeToDo(-4, 10)
	want := p.timeToDoScan(-4, 10)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("negative start: got %v, want %v", got, want)
	}
}
