package experiments

import (
	"os"
	"testing"

	"dynasym/internal/workloads"
)

// The shape tests assert the qualitative findings of the paper's evaluation
// (EXPERIMENTS.md, "Paper experiments") at reduced scale. Verbose runs also print the rendered
// tables for eyeballing against the paper.

const (
	testScale = Scale(0.08)
	testSeed  = 42
)

func TestFig4aShape(t *testing.T) {
	grid := Fig4(SweepConfig{Kernel: workloads.MatMul, Parallelisms: []int{2, 4, 6}, Seed: testSeed, Scale: testScale})
	if testing.Verbose() {
		grid.Render(os.Stdout)
	}
	rws, fa, damc := grid.Get("RWS", 2), grid.Get("FA", 2), grid.Get("DAM-C", 2)
	if !(damc > fa && fa > rws) {
		t.Errorf("P=2 ordering: want DAM-C > FA > RWS, got DAM-C=%.0f FA=%.0f RWS=%.0f", damc, fa, rws)
	}
	if damc < 2*rws {
		t.Errorf("P=2: DAM-C should be ≥2× RWS (paper: up to 3.5×), got %.2f×", damc/rws)
	}
	if damc < 1.5*fa {
		t.Errorf("P=2: DAM-C should be ≥1.5× FA (paper: ~1.9×), got %.2f×", damc/fa)
	}
	// DAM-C saturates early: its P=2 throughput is already ≥70% of its
	// P=6 throughput, while RWS grows roughly linearly with P.
	if damc < 0.7*grid.Get("DAM-C", 6) {
		t.Errorf("DAM-C should saturate early: P=2 %.0f vs P=6 %.0f", damc, grid.Get("DAM-C", 6))
	}
	if r6 := grid.Get("RWS", 6); r6 < 2.2*rws {
		t.Errorf("RWS should scale ~linearly with P: P=6 %.0f vs P=2 %.0f", r6, rws)
	}
}

func TestFig9Shape(t *testing.T) {
	res := Fig9(Fig9Config{Iters: 40, From: 10, To: 30, Seed: testSeed, Scale: Scale(0.25)})
	if testing.Verbose() {
		res.Render(os.Stdout)
	}
	// Inside the interference window the dynamic schedulers stay close to
	// their uninterfered pace while RWS degrades markedly (paper: DAM-P
	// best during interference, RWS worst with heavy wobble).
	rws := res.MeanSettledIterTime("RWS")
	damc := res.MeanSettledIterTime("DAM-C")
	damp := res.MeanSettledIterTime("DAM-P")
	if !(damc < rws && damp < rws) {
		t.Errorf("window iteration times: want DAM-C, DAM-P < RWS, got DAM-P=%.3g DAM-C=%.3g RWS=%.3g", damp, damc, rws)
	}
	if rws < 1.10*damc {
		t.Errorf("RWS should degrade ≥10%% vs DAM-C inside the window: RWS=%.3g DAM-C=%.3g", rws, damc)
	}
	if damp > 1.20*damc {
		t.Errorf("DAM-P should stay close to DAM-C inside the window: DAM-P=%.3g DAM-C=%.3g", damp, damc)
	}
	// DAM-P molds during interference (Figure 9c shows wide places).
	if ws := res.WideShare("DAM-P"); ws <= 0 {
		t.Errorf("DAM-P should use wide places during interference, wide share = %.3f", ws)
	}
}

func TestFig10Shape(t *testing.T) {
	res := Fig10(Scale(0.5), testSeed)
	if testing.Verbose() {
		res.Render(os.Stdout)
	}
	rws, rwsm := res.Get("RWS"), res.Get("RWSM-C")
	da, damc, damp := res.Get("DA"), res.Get("DAM-C"), res.Get("DAM-P")
	if !(damc > rwsm && rwsm > rws) {
		t.Errorf("want DAM-C > RWSM-C > RWS, got DAM-C=%.0f RWSM-C=%.0f RWS=%.0f", damc, rwsm, rws)
	}
	if !(damc > da && damp > da) {
		t.Errorf("moldability should help Heat: want DAM-C, DAM-P > DA, got DAM-C=%.0f DAM-P=%.0f DA=%.0f", damc, damp, da)
	}
}
