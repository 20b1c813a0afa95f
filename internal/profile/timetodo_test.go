package profile

import (
	"math"
	"testing"
)

// TimeToDo inverts integrate for every profile shape, including start times
// that sit exactly on a change point ("combined" is a composite; the
// composed shapes of compose_test.go get the same check there).
func TestTimeToDoInvertsIntegrate(t *testing.T) {
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
	rnd := xorshift()
	for name, p := range profiles {
		// Scale work to the profile's magnitude so completion stays within
		// a bounded virtual-time horizon (the scan walks every change point
		// until the work is done).
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
			checkInverse(t, name, p, start, work)
		}
	}
}

// A negative start integrates the value at 0 from start on. The literal is
// 2 + 4/3 rounded twice at run time, as the scan computes it.
func TestTimeToDoNegativeStart(t *testing.T) {
	p := MustSteps(Segment{0, 1}, Segment{2, 3})
	if got := p.TimeToDo(-4, 10); got != 3.333333333333333 {
		t.Fatalf("negative start: got %v, want 3.333333333333333", got)
	}
}
