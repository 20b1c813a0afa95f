package metrics

import (
	"bytes"
	"strings"
	"testing"
)

// The derived rates are exact functions of the sums, and the report prints
// them: the steal total in the matrix header, the queue means and the PTT
// errors in their lines. A zero denominator reads as zero, not NaN.
func TestSchedDerivedRates(t *testing.T) {
	s := &Sched{
		Busy: []float64{1, 2}, Dispatch: []float64{0, 0}, Steal: []float64{0, 0}, Idle: []float64{1, 0},
		StealMatrix: []StealEdge{
			{Victim: 0, Thief: 1, Low: 3, High: 4},
			{Victim: 1, Thief: 0, Low: 5},
		},
		Span:           2,
		QueueSamples:   9,
		ReadySec:       5,
		CommittedSec:   1,
		MaxReady:       6,
		MaxCommitted:   2,
		PTTSamples:     4,
		PTTErrSum:      1,
		PTTTailSamples: 2,
		PTTTailErrSum:  0.1,
	}
	if got := s.totalSteals(); got != 12 {
		t.Errorf("totalSteals = %d, want 12", got)
	}
	if got := s.meanReady(); got != 2.5 {
		t.Errorf("meanReady = %v, want 2.5", got)
	}
	if got := s.meanCommitted(); got != 0.5 {
		t.Errorf("meanCommitted = %v, want 0.5", got)
	}
	if got := s.pttMeanRelErr(); got != 0.25 {
		t.Errorf("pttMeanRelErr = %v, want 0.25", got)
	}
	if got := s.pttTailRelErr(); got != 0.05 {
		t.Errorf("pttTailRelErr = %v, want 0.05", got)
	}

	var buf bytes.Buffer
	s.WriteReport(&buf)
	for _, want := range []string{
		"steal matrix (victim -> thief, 12 steals, 2 edges):\n",
		"queues: mean ready 2.50 (max 6), mean committed 0.50 (max 2), 9 transitions\n",
		"ptt: 4 predictions, mean rel err 0.250, tail rel err 0.050 (last quarter)\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, buf.String())
		}
	}

	var empty Sched
	if empty.totalSteals() != 0 || empty.meanReady() != 0 || empty.meanCommitted() != 0 ||
		empty.pttMeanRelErr() != 0 || empty.pttTailRelErr() != 0 {
		t.Errorf("empty aggregate: steals=%d ready=%v committed=%v ptt=%v/%v, want all zero",
			empty.totalSteals(), empty.meanReady(), empty.meanCommitted(), empty.pttMeanRelErr(), empty.pttTailRelErr())
	}
	buf.Reset()
	empty.WriteReport(&buf)
	for _, want := range []string{
		"steal matrix (victim -> thief, 0 steals): none\n",
		"queues: mean ready 0.00 (max 0), mean committed 0.00 (max 0), 0 transitions\n",
		"ptt: no predictions",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("empty report lacks %q:\n%s", want, buf.String())
		}
	}
}
