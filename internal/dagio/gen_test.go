package dagio

import (
	"strings"
	"testing"
)

// choleskyTasks is the closed-form task count of a T-tile Cholesky:
// T POTRF + T(T-1)/2 TRSM + T(T-1)/2 SYRK + T(T-1)(T-2)/6 GEMM.
func choleskyTasks(T int) int {
	return T + T*(T-1)/2 + T*(T-1)/2 + T*(T-1)*(T-2)/6
}

// luTasks is the closed-form task count of a T-tile LU without
// pivoting: T GETRF + T(T-1) TRSM + sum_k (T-1-k)^2 GEMM.
func luTasks(T int) int {
	gemm := 0
	for k := 0; k < T; k++ {
		gemm += (T - 1 - k) * (T - 1 - k)
	}
	return T + T*(T-1) + gemm
}

func TestCholeskyShape(t *testing.T) {
	for _, T := range []int{1, 2, 4, 8} {
		g, err := GenConfig{Model: ModelCholesky, Tiles: T}.Graph()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(g.Nodes), choleskyTasks(T); got != want {
			t.Errorf("T=%d: %d tasks, want %d", T, got, want)
		}
		dg, err := g.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := dg.Validate(); err != nil {
			t.Errorf("T=%d: %v", T, err)
		}
		// The POTRF spine serializes the factorization: the critical
		// path has at least one task per elimination step.
		if T > 1 {
			if p := dg.Parallelism(); p <= 0 || p >= float64(len(g.Nodes))/float64(T-1) {
				t.Errorf("T=%d: implausible parallelism %v for %d tasks", T, p, len(g.Nodes))
			}
		}
		high := 0
		for _, n := range g.Nodes {
			if n.High {
				high++
			}
		}
		if high != T {
			t.Errorf("T=%d: %d high-priority tasks, want %d (the POTRF spine)", T, high, T)
		}
	}
}

func TestLUShape(t *testing.T) {
	for _, T := range []int{1, 2, 4, 6} {
		g, err := GenConfig{Model: ModelLU, Tiles: T}.Graph()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(g.Nodes), luTasks(T); got != want {
			t.Errorf("T=%d: %d tasks, want %d", T, got, want)
		}
		dg, err := g.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := dg.Validate(); err != nil {
			t.Errorf("T=%d: %v", T, err)
		}
	}
}

func TestForkJoinShape(t *testing.T) {
	g, err := GenConfig{Model: ModelForkJoin, Layers: 5, Width: 7}.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(g.Nodes), 5*(7+2); got != want {
		t.Fatalf("%d tasks, want %d", got, want)
	}
	dg, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Each segment is fork → workers → join, so the longest path is
	// 3 tasks per segment and parallelism = 9/3 = 3 exactly.
	if p := dg.Parallelism(); p != 3 {
		t.Fatalf("fork-join parallelism %v, want 3", p)
	}
}

func TestRandomLayeredDeterminism(t *testing.T) {
	mk := func(seed uint64) string {
		g, err := GenConfig{Model: ModelRandomLayered, Layers: 6, Width: 5, Seed: seed}.Graph()
		if err != nil {
			t.Fatal(err)
		}
		d, err := g.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if mk(7) != mk(7) {
		t.Fatal("same seed produced different graphs")
	}
	if mk(7) == mk(8) {
		t.Fatal("different seeds produced identical graphs")
	}
	g, err := GenConfig{Model: ModelRandomLayered, Layers: 6, Width: 5, Seed: 7}.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(g.Nodes), 30; got != want {
		t.Fatalf("%d tasks, want %d", got, want)
	}
	dg, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := dg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenConfigValidate(t *testing.T) {
	if err := (GenConfig{Model: "spiral"}.Defaults()).Validate(); err == nil {
		t.Fatal("unknown model accepted")
	} else if !strings.Contains(err.Error(), "known models") {
		t.Fatalf("error %q does not list the known models", err)
	}
	if _, err := (GenConfig{Model: ModelCholesky, Tiles: -1}).Graph(); err == nil {
		t.Fatal("negative tiles accepted")
	}
	for _, m := range Models() {
		if _, err := (GenConfig{Model: m}).Graph(); err != nil {
			t.Errorf("default %s config failed: %v", m, err)
		}
	}
}

// Tasks must count what the generators emit: scenario.MaxCellTasks is
// checked against it before any graph exists.
func TestGenConfigTasksMatchesGraph(t *testing.T) {
	for _, c := range []GenConfig{
		{Model: ModelCholesky, Tiles: 7}, {Model: ModelLU, Tiles: 7},
		{Model: ModelForkJoin, Layers: 5, Width: 3}, {Model: ModelRandomLayered, Layers: 5, Width: 3},
	} {
		g, err := c.Graph()
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Defaults().Tasks(); got != float64(len(g.Nodes)) {
			t.Errorf("%s: Tasks() = %v, the graph has %d nodes", c.Model, got, len(g.Nodes))
		}
	}
}
