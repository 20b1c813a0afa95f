package profile

import (
	"math"
	"testing"
	"testing/quick"
)

// integrate returns the integral of p over [from, to]: the reference the
// TimeToDo property checks against.
func integrate(p *Profile, from, to float64) float64 {
	if to <= from {
		return 0
	}
	total := 0.0
	t := from
	for t < to {
		next := p.nextChange(t)
		if next > to {
			next = to
		}
		total += p.rateOver(t, next) * (next - t)
		t = next
	}
	return total
}

func TestConstant(t *testing.T) {
	p := Constant(3.5)
	for _, at := range []float64{0, 1, 1e9} {
		if v := p.At(at); v != 3.5 {
			t.Fatalf("At(%g) = %g", at, v)
		}
	}
	if !math.IsInf(p.nextChange(0), 1) {
		t.Fatal("constant profile should never change")
	}
}

func TestStepsValidation(t *testing.T) {
	if _, err := steps(); err == nil {
		t.Fatal("empty Steps accepted")
	}
	if _, err := steps(Segment{1, 2}); err == nil {
		t.Fatal("Steps not starting at 0 accepted")
	}
	if _, err := steps(Segment{0, 1}, Segment{0, 2}); err == nil {
		t.Fatal("non-increasing starts accepted")
	}
}

func TestEpisode(t *testing.T) {
	p := Episode(1.0, 0.5, 2, 5)
	cases := []struct{ at, want float64 }{
		{0, 1}, {1.99, 1}, {2, 0.5}, {4.99, 0.5}, {5, 1}, {100, 1},
	}
	for _, c := range cases {
		if v := p.At(c.at); v != c.want {
			t.Fatalf("At(%g) = %g, want %g", c.at, v, c.want)
		}
	}
	if got := p.nextChange(0); got != 2 {
		t.Fatalf("NextChange(0) = %g, want 2", got)
	}
	if got := p.nextChange(2); got != 5 {
		t.Fatalf("NextChange(2) = %g, want 5", got)
	}
}

func TestEpisodeFromZero(t *testing.T) {
	p := Episode(1.0, 0.25, 0, 3)
	if v := p.At(0); v != 0.25 {
		t.Fatalf("At(0) = %g, want 0.25", v)
	}
	if v := p.At(3); v != 1 {
		t.Fatalf("At(3) = %g, want 1", v)
	}
}

func TestSquareWavePeriodicity(t *testing.T) {
	p := SquareWave(2.0, 0.5, 5, 5)
	for _, c := range []struct{ at, want float64 }{
		{0, 2}, {4.9, 2}, {5, 0.5}, {9.9, 0.5}, {10, 2}, {15, 0.5}, {1000, 2}, {1005, 0.5},
	} {
		if v := p.At(c.at); v != c.want {
			t.Fatalf("At(%g) = %g, want %g", c.at, v, c.want)
		}
	}
	if got := p.nextChange(12); got != 15 {
		t.Fatalf("NextChange(12) = %g, want 15", got)
	}
	if got := p.nextChange(17); got != 20 {
		t.Fatalf("NextChange(17) = %g, want 20", got)
	}
}

func TestIntegrate(t *testing.T) {
	p := SquareWave(2, 1, 1, 1)
	// One full period integrates to 3.
	if got := integrate(p, 0, 2); math.Abs(got-3) > 1e-12 {
		t.Fatalf("integrate(0,2) = %g, want 3", got)
	}
	// Ten periods.
	if got := integrate(p, 0, 20); math.Abs(got-30) > 1e-9 {
		t.Fatalf("integrate(0,20) = %g, want 30", got)
	}
	// Partial, crossing a boundary.
	if got := integrate(p, 0.5, 1.5); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("integrate(0.5,1.5) = %g, want 1.5", got)
	}
}

func TestTimeToDo(t *testing.T) {
	p := Constant(2)
	if got := p.TimeToDo(1, 4); got != 3 {
		t.Fatalf("TimeToDo = %g, want 3", got)
	}
	// Square wave: rate 2 for 1s, 0 for 1s — work pauses.
	w := SquareWave(2, 0, 1, 1)
	if got := w.TimeToDo(0, 3); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("TimeToDo over paused stretch = %g, want 2.5", got)
	}
	// Zero forever → +Inf.
	z := Constant(0)
	if !math.IsInf(z.TimeToDo(0, 1), 1) {
		t.Fatal("zero-rate TimeToDo should be +Inf")
	}
	// Zero work completes immediately.
	if got := p.TimeToDo(5, 0); got != 5 {
		t.Fatalf("zero work = %g, want 5", got)
	}
}

// Property: integrate(start, TimeToDo(start, work)) == work.
func TestTimeToDoInverseOfIntegrate(t *testing.T) {
	p := SquareWave(3, 0.5, 2, 1)
	check := func(startRaw, workRaw uint16) bool {
		start := float64(startRaw) / 100
		work := float64(workRaw)/100 + 0.001
		end := p.TimeToDo(start, work)
		got := integrate(p, start, end)
		return math.Abs(got-work) < 1e-6*math.Max(1, work)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestScale(t *testing.T) {
	p := SquareWave(4, 2, 1, 1).Scale(0.5)
	if v := p.At(0); v != 2 {
		t.Fatalf("scaled At(0) = %g, want 2", v)
	}
	if v := p.At(1.5); v != 1 {
		t.Fatalf("scaled At(1.5) = %g, want 1", v)
	}
}

func TestMul(t *testing.T) {
	a := SquareWave(2, 1, 1, 1)
	b := Constant(3)
	m := Mul(a, b)
	if v := m.At(0.5); v != 6 {
		t.Fatalf("Mul At(0.5) = %g, want 6", v)
	}
	if v := m.At(1.5); v != 3 {
		t.Fatalf("Mul At(1.5) = %g, want 3", v)
	}
	// Two periodic profiles with commensurable periods.
	c := SquareWave(1, 0, 2, 2)
	mc := Mul(a, c)
	for _, at := range []float64{0.5, 1.5, 2.5, 3.5, 4.5, 100.5} {
		want := a.At(at) * c.At(at)
		if v := mc.At(at); math.Abs(v-want) > 1e-12 {
			t.Fatalf("Mul periodic At(%g) = %g, want %g", at, v, want)
		}
	}
}

func TestMin2(t *testing.T) {
	a := Constant(5)
	b := SquareWave(10, 2, 1, 1)
	m := Min2(a, b)
	if v := m.At(0.5); v != 5 {
		t.Fatalf("Min2 At(0.5) = %g, want 5", v)
	}
	if v := m.At(1.5); v != 2 {
		t.Fatalf("Min2 At(1.5) = %g, want 2", v)
	}
	// Constant that never binds returns the other profile's values.
	big := Constant(100)
	if v := Min2(big, b).At(0.2); v != 10 {
		t.Fatalf("Min2 with loose bound At(0.2) = %g, want 10", v)
	}
}

func TestMinMax(t *testing.T) {
	p := SquareWave(7, 3, 1, 2)
	if p.At(1.5) != 3 || p.max() != 7 {
		t.Fatalf("low level/Max = %g/%g, want 3/7", p.At(1.5), p.max())
	}
}

func TestNegativeTimeTreatedAsZero(t *testing.T) {
	p := Episode(1, 0.5, 1, 2)
	if v := p.At(-5); v != 1 {
		t.Fatalf("At(-5) = %g, want 1", v)
	}
}

func BenchmarkTimeToDoConstant(b *testing.B) {
	p := Constant(2e9)
	for i := 0; i < b.N; i++ {
		_ = p.TimeToDo(0, 1e6)
	}
}

func BenchmarkTimeToDoSquareWave(b *testing.B) {
	p := SquareWave(2e9, 3e8, 5, 5)
	for i := 0; i < b.N; i++ {
		_ = p.TimeToDo(float64(i%10), 1e10)
	}
}
