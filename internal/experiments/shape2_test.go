package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"dynasym/internal/workloads"
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
	res := Fig5(testScale, testSeed)
	if testing.Verbose() {
		res.Render(os.Stdout)
	}
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
	res := Fig6(testScale, testSeed)
	if testing.Verbose() {
		res.Render(os.Stdout)
	}
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
	grid := Fig7(SweepConfig{Kernel: workloads.MatMul, Parallelisms: []int{2, 6}, Seed: testSeed, Scale: testScale})
	if testing.Verbose() {
		grid.Render(os.Stdout)
	}
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
	res := Fig8(testScale, testSeed)
	if testing.Verbose() {
		res.Render(os.Stdout)
	}
	// The PTT weight only matters for the smallest tile: its spread is
	// the largest, and the large tiles stay comparatively flat (paper:
	// ~36% for tile 32, stable above).
	small := res.Spread(0)
	for i := 1; i < len(res.Tiles); i++ {
		if s := res.Spread(i); s > small {
			t.Errorf("tile %d spread %.2f exceeds tile 32 spread %.2f", res.Tiles[i], s, small)
		}
	}
	if small < 0.05 {
		t.Errorf("tile 32 spread %.3f too small — weight ratio should matter", small)
	}
	// Throughput decreases with tile size (cubic work growth).
	if res.Tput[0][0] <= res.Tput[len(res.Tiles)-1][0] {
		t.Error("throughput did not decrease with tile size")
	}
}

func TestAblationSteal(t *testing.T) {
	grid, err := Ablation(AblationConfig{Variant: "steal", Parallelisms: []int{2}, Seed: testSeed, Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		grid.Render(os.Stdout)
	}
	// Allowing critical tasks to be stolen voids the placement guarantee
	// and should not help DAM-C under interference.
	if grid.Get("DAM-C+steal", 2) > grid.Get("DAM-C", 2)*1.05 {
		t.Errorf("stealing critical tasks helped: %0.f vs %0.f",
			grid.Get("DAM-C+steal", 2), grid.Get("DAM-C", 2))
	}
}

func TestAblationWake(t *testing.T) {
	grid, err := Ablation(AblationConfig{Variant: "wake", Parallelisms: []int{2}, Seed: testSeed, Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		grid.Render(os.Stdout)
	}
	// Without wake-time routing critical tasks still get re-placed at
	// dispatch; the result must stay within 2× (sanity) and the variant
	// must run to completion.
	if grid.Get("DAM-C-wake", 2) <= 0 {
		t.Fatal("wake ablation produced no throughput")
	}
}

func TestAblationDHEFT(t *testing.T) {
	grid, err := Ablation(AblationConfig{Variant: "dheft", Parallelisms: []int{2}, Seed: testSeed, Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		grid.Render(os.Stdout)
	}
	// dHEFT places every task by earliest finish time; under interference
	// it should comfortably beat RWS.
	if grid.Get("dHEFT", 2) <= grid.Get("RWS", 2) {
		t.Errorf("dHEFT (%.0f) not above RWS (%.0f)", grid.Get("dHEFT", 2), grid.Get("RWS", 2))
	}
}

func TestAblationUnknownVariant(t *testing.T) {
	_, err := Ablation(AblationConfig{Variant: "bogus"})
	if err == nil {
		t.Fatal("unknown variant accepted")
	}
	if want := "(want steal|wake|dheft|sampled)"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not list the variants %s", err, want)
	}
}

// Every catalog id renders a non-empty block, Names has no duplicate, and an
// id outside the catalog is refused with the ids that exist.
func TestEveryListedExperimentRuns(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range Names() {
		if seen[id] {
			t.Errorf("Names lists %q twice", id)
		}
		seen[id] = true
		res, err := Run(id, Scale(0.05), testSeed)
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
	for _, v := range ablationVariants {
		if !seen["ablation-"+v.name] {
			t.Errorf("ablation variant %q is not in the catalog", v.name)
		}
	}
	if _, err := Run("ablation-bogus", 1, testSeed); err == nil || !strings.Contains(err.Error(), "ablation-wake") {
		t.Errorf("unknown id: error %v, want one listing the known ids", err)
	}
}

func TestAblationAlphaRuns(t *testing.T) {
	res := AblationAlpha(Scale(0.03), testSeed)
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
	grid := AblationWidth(Scale(0.03), 0)
	if testing.Verbose() {
		grid.Render(os.Stdout)
	}
	if len(grid.Tput) != 4 {
		t.Fatalf("width ablation rows = %d", len(grid.Tput))
	}
}

func TestFig9Render(t *testing.T) {
	res := Fig9(Fig9Config{Iters: 12, From: 4, To: 9, Seed: testSeed, Scale: Scale(0.125)})
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty fig9 render")
	}
	buf.Reset()
	if err := res.RenderPlaces(&buf, "DAM-P"); err != nil {
		t.Fatal(err)
	}
	if err := res.RenderPlaces(&buf, "nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestAblationInfer(t *testing.T) {
	grid := AblationInfer(AblationConfig{Parallelisms: []int{2}, Seed: testSeed, Scale: testScale})
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
