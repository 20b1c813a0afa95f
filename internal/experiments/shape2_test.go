package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"dynasym/internal/scenario"
)

func TestTable1MatchesPaper(t *testing.T) {
	res := Table1()
	want := []Table1Row{
		{"RWS", "N/A", "N/A", "N/A"},
		{"RWSM-C", "N/A", "Yes", "Resource Cost"},
		{"FA", "Fixed", "No", "Fast cores"},
		{"FAM-C", "Fixed", "Yes", "Resource Cost"},
		{"DA", "Dynamic", "No", "N/A"},
		{"DAM-C", "Dynamic", "Yes", "Resource Cost"},
		{"DAM-P", "Dynamic", "Yes", "Performance"},
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for i, w := range want {
		if res.Rows[i] != w {
			t.Fatalf("row %d = %+v, want %+v", i, res.Rows[i], w)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestFig5Shape(t *testing.T) {
	res := family[*Fig5Result](t, "fig5", testScale)
	// FA splits critical tasks 50/50 over the Denver cores.
	if s := res.Share("FA", 0); s < 0.45 || s > 0.55 {
		t.Errorf("FA core-0 share %.2f, want ~0.5", s)
	}
	// The dynamic schedulers put ≥90%% of critical tasks on the clean
	// fast core 1 (paper: 92–98%%).
	for _, name := range []string{"DA", "DAM-C", "DAM-P"} {
		if s := res.Share(name, 1); s < 0.90 {
			t.Errorf("%s core-1 share %.2f, want ≥0.90", name, s)
		}
	}
	// RWS spreads them: no core above 40%%.
	for c := 0; c < 6; c++ {
		if s := res.Share("RWS", c); s > 0.4 {
			t.Errorf("RWS concentrated %.2f on core %d", s, c)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	res := family[*Fig6Result](t, "fig6", testScale)
	// FA pins half the critical tasks to the interfered core 0, so its
	// core-0 work time is the highest across schedulers (paper Fig. 6).
	fa := res.CoreTime("FA", 0)
	for _, name := range []string{"RWS", "DA", "DAM-C", "DAM-P"} {
		if other := res.CoreTime(name, 0); other >= fa {
			t.Errorf("%s core-0 time %.2f ≥ FA %.2f", name, other, fa)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	grid := family[*ThroughputGrid](t, "fig7a", testScale, 2, 6)
	// Dynamic schedulers beat the fixed and random families under DVFS.
	for _, name := range []string{"RWS", "FA"} {
		if grid.Get("DAM-P", 2) <= grid.Get(name, 2) {
			t.Errorf("DAM-P (%.0f) not above %s (%.0f) at P=2 under DVFS",
				grid.Get("DAM-P", 2), name, grid.Get(name, 2))
		}
	}
	// DAM-P ≥ DAM-C at low parallelism (the paper's key DVFS finding:
	// minimizing time beats minimizing cost when parallelism is scarce).
	if grid.Get("DAM-P", 2) < grid.Get("DAM-C", 2) {
		t.Errorf("DAM-P (%.0f) below DAM-C (%.0f) at P=2 under DVFS",
			grid.Get("DAM-P", 2), grid.Get("DAM-C", 2))
	}
}

func TestFig8Shape(t *testing.T) {
	res := family[*Fig8Result](t, "fig8", testScale)
	// The PTT weight only matters for the smallest tile: its spread is
	// the largest, and the large tiles stay comparatively flat (paper:
	// ~36% for tile 32, stable above).
	checkFig8Order(t, res, testSeed)
	if small := res.Spread(0); small < 0.05 {
		t.Errorf("tile 32 spread %.3f too small — weight ratio should matter", small)
	}
	// Across seeds the ordering and the falling throughput hold on every
	// seed, the tile-32 spread floor on most (EXPERIMENTS.md, "Figure 8
	// across seeds": seeds 2, 7 and 10 read 0.040, 0.044 and 0.012).
	wide := 0
	for seed := uint64(1); seed <= 10; seed++ {
		res := familyAt[*Fig8Result](t, "fig8", testScale, seed)
		checkFig8Order(t, res, seed)
		if res.Spread(0) >= 0.05 {
			wide++
		}
	}
	if wide < 7 {
		t.Errorf("tile 32 spread ≥ 0.05 on %d of seeds 1–10, want at least 7", wide)
	}
}

// checkFig8Order checks that no larger tile spreads more than tile 32 and
// that throughput falls with tile size (cubic work growth).
func checkFig8Order(t *testing.T, res *Fig8Result, seed uint64) {
	t.Helper()
	small := res.Spread(0)
	for i := 1; i < len(res.Tiles); i++ {
		if s := res.Spread(i); s > small {
			t.Errorf("seed %d: tile %d spread %.2f exceeds tile 32 spread %.2f", seed, res.Tiles[i], s, small)
		}
	}
	if res.Tput[0][0] <= res.Tput[len(res.Tiles)-1][0] {
		t.Errorf("seed %d: throughput did not decrease with tile size", seed)
	}
}

func TestAblationSteal(t *testing.T) {
	grid := family[*ThroughputGrid](t, "ablation-steal", testScale, 2)
	// Allowing critical tasks to be stolen voids the placement guarantee
	// and should not help DAM-C under interference.
	if grid.Get("DAM-C+steal", 2) > grid.Get("DAM-C", 2)*1.05 {
		t.Errorf("stealing critical tasks helped: %0.f vs %0.f",
			grid.Get("DAM-C+steal", 2), grid.Get("DAM-C", 2))
	}
}

func TestAblationWake(t *testing.T) {
	grid := family[*ThroughputGrid](t, "ablation-wake", testScale, 2)
	// Without wake-time routing critical tasks still get re-placed at
	// dispatch; the result must stay within 2× (sanity) and the variant
	// must run to completion.
	if grid.Get("DAM-C-wake", 2) <= 0 {
		t.Fatal("wake ablation produced no throughput")
	}
}

func TestAblationDHEFT(t *testing.T) {
	grid := family[*ThroughputGrid](t, "ablation-dheft", testScale, 2)
	// dHEFT places every task by earliest finish time; under interference
	// it should comfortably beat RWS.
	if grid.Get("dHEFT", 2) <= grid.Get("RWS", 2) {
		t.Errorf("dHEFT (%.0f) not above RWS (%.0f)", grid.Get("dHEFT", 2), grid.Get("RWS", 2))
	}
}

// Every catalog id renders a non-empty block, a view reads a registered
// family, Names has no duplicate, and an id outside the catalog is refused
// with the ids that exist.
func TestEveryListedExperimentRuns(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range Names() {
		if seen[id] {
			t.Errorf("Names lists %q twice", id)
		}
		seen[id] = true
		if name, _, ok := View(id); ok {
			if _, ok := scenario.Lookup(name); !ok {
				t.Errorf("%s views %q, which is not a registered family", id, name)
				continue
			}
		}
		res, err := Run(id, 0.05, testSeed)
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		var buf bytes.Buffer
		res.Render(&buf)
		if len(bytes.Fields(buf.Bytes())) < 2 {
			t.Errorf("%s rendered no table: %q", id, buf.String())
		}
	}
	if _, err := Run("ablation-bogus", 1, testSeed); err == nil || !strings.Contains(err.Error(), "ablation-wake") {
		t.Errorf("unknown id: error %v, want one listing the known ids", err)
	}
}

func TestAblationAlphaRuns(t *testing.T) {
	res := family[*AlphaResult](t, "ablation-alpha", 0.03)
	if len(res.Tput) != 5 {
		t.Fatalf("%d alpha points", len(res.Tput))
	}
	for i, v := range res.Tput {
		if v <= 0 {
			t.Fatalf("alpha %g throughput %g", res.Alphas[i], v)
		}
	}
}

func TestAblationWidthRuns(t *testing.T) {
	grid := ablationWidth(0.03, 0)
	if testing.Verbose() {
		grid.Render(os.Stdout)
	}
	if len(grid.Tput) != 4 {
		t.Fatalf("width ablation rows = %d", len(grid.Tput))
	}
}

func TestFig9Render(t *testing.T) {
	res := fig9(0.125, testSeed)
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty fig9 render")
	}
	buf.Reset()
	if err := res.renderPlaces(&buf, "DAM-P"); err != nil {
		t.Fatal(err)
	}
	if err := res.renderPlaces(&buf, "nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestAblationInfer(t *testing.T) {
	grid := ablationInfer(testScale, testSeed)
	if testing.Verbose() {
		grid.Render(os.Stdout)
	}
	user, inferred, none := grid.Get("user", 2), grid.Get("inferred", 2), grid.Get("none", 2)
	// CATS-style inference recovers the user annotations on the layered
	// DAG (the critical chain is its unique critical path)...
	if inferred < 0.95*user {
		t.Errorf("inferred criticality (%.0f) underperforms user annotations (%.0f)", inferred, user)
	}
	// ...and criticality knowledge is the main lever: without it DAM-C
	// degrades toward RWS.
	if none > 0.6*user {
		t.Errorf("priority-free run (%.0f) too close to annotated run (%.0f)", none, user)
	}
}
